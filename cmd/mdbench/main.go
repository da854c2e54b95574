// Command mdbench regenerates the paper's figures and quantitative
// claims as printable tables (experiment index in DESIGN.md, kept in
// internal/bench).
//
// Usage:
//
//	mdbench -exp e1          # one experiment
//	mdbench -exp all         # every experiment
//	mdbench -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

// elapsed reports how long fn takes on the wall clock, in nanoseconds.
func elapsed(fn func()) int64 {
	start := time.Now()
	fn()
	return time.Since(start).Nanoseconds()
}

func main() {
	experiments := bench.Experiments(elapsed)
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(ids, ", ")+", or all")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	found := false
	for _, e := range experiments {
		switch {
		case *list:
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		case *exp == "all" || *exp == e.ID:
			e.Run().Fprint(os.Stdout)
			found = true
		}
	}
	if !*list && !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}
