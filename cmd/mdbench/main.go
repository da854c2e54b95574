// Command mdbench regenerates the paper's figures and quantitative
// claims as printable tables (experiment index in DESIGN.md).
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
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/clock"
)

// experiments maps experiment ids to their drivers.
var experiments = map[string]struct {
	desc string
	run  func() *bench.Table
}{
	"e1": {"Figure 4: concurrent periodic access", func() *bench.Table {
		return bench.RunE1(8).Table()
	}},
	"e2": {"Figure 5: on-demand aggregation", func() *bench.Table {
		return bench.RunE2(20, 80, 10, 50).Table()
	}},
	"e3": {"provision scalability (pub-sub vs maintain-all)", func() *bench.Table {
		return bench.E3Table(bench.RunE3([]int{10, 50, 100, 200, 400}, 0.1, 2000))
	}},
	"e4": {"freshness vs overhead (window sweep)", func() *bench.Table {
		return bench.E4Table(bench.RunE4([]clock.Duration{10, 20, 50, 100, 200, 500}, 1.0, 0.2, 500, 8000))
	}},
	"e5": {"triggered vs periodic maintenance", func() *bench.Table {
		return bench.E5Table(bench.RunE5([]clock.Duration{25, 50, 100, 200, 400, 800}, 20, 8000))
	}},
	"e6": {"handler sharing across consumers", func() *bench.Table {
		return bench.E6Table(bench.RunE6([]int{1, 2, 4, 8, 16, 32, 64}, 1000))
	}},
	"e7": {"automated dependency inclusion", func() *bench.Table {
		return bench.E7Table(bench.RunE7([]int{1, 2, 5, 10, 20, 50, 100, 200}))
	}},
	"e8": {"Figure 3: cost model under window change", func() *bench.Table {
		return bench.RunE8(0.1, 100, 4000, 200).Table()
	}},
	"e9": {"periodic update worker pool", func() *bench.Table {
		return bench.E9Table(bench.RunE9([]int{0, 1, 2, 4, 8}, 400, 25, 20000, elapsed))
	}},
	"e10": {"Chain scheduling vs baselines", func() *bench.Table {
		return bench.E10Table(bench.RunE10(1200))
	}},
	"e11": {"load shedding under overload", func() *bench.Table {
		return bench.E11Table(bench.RunE11(5, 12000))
	}},
	"e12": {"subscription churn and auto-removal", func() *bench.Table {
		return bench.E12Table(bench.RunE12(200, 10, 20))
	}},
	"e13": {"dynamic dependency resolution", func() *bench.Table {
		return bench.E13Table(bench.RunE13(50))
	}},
	"e14": {"metadata inheritance and redefinition", func() *bench.Table {
		return bench.RunE14().Table()
	}},
	"e15": {"exchangeable module metadata", func() *bench.Table {
		return bench.E15Table(bench.RunE15(20, 3000))
	}},
	"e16": {"adaptive filter reordering (optimizer)", func() *bench.Table {
		return bench.RunE16(3000).Table()
	}},
	"e17": {"join-order advisor on rate metadata", func() *bench.Table {
		return bench.E17Table(bench.RunE17())
	}},
	"e18": {"QoS-priority scheduling vs round-robin", func() *bench.Table {
		return bench.E18Table(bench.RunE18(3000))
	}},
	"c1": {"contention: parallel reads & churn across dependency scopes", func() *bench.Table {
		if *workersFlag < 0 {
			fmt.Fprintln(os.Stderr, "-workers must be >= 0 (0 runs the inline updater)")
			os.Exit(2)
		}
		return bench.C1Table(bench.RunC1([]int{1, 2, 4, 8}, 64, 100000, *workersFlag, elapsed))
	}},
	"f2": {"Figure 2: metadata taxonomy, live", bench.RunF2},
}

// workersFlag sets the updater pool size for experiments that take one
// (c1); 0 selects the inline updater.
var workersFlag = flag.Int("workers", 2, "updater worker pool size for c1 (0 = inline)")

// elapsed reports how long fn takes on the wall clock, in nanoseconds.
func elapsed(fn func()) int64 {
	start := time.Now()
	fn()
	return time.Since(start).Nanoseconds()
}

func main() {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})

	exp := flag.String("exp", "all", "experiment id: "+strings.Join(ids, ", ")+", or all")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	if *list {
		for _, id := range ids {
			fmt.Printf("%-4s %s\n", id, experiments[id].desc)
		}
		return
	}
	if *exp == "all" {
		for _, id := range ids {
			experiments[id].run().Fprint(os.Stdout)
		}
		return
	}
	e, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	e.run().Fprint(os.Stdout)
}
