// Command mdtop runs a demo query graph and periodically prints its
// metadata — a terminal variant of the monitoring tool of Section 2.5.
// It shows the per-node metadata inventory (available vs included
// items) and the recorded time series of the items a consumer
// subscribed to.
//
// Usage:
//
//	mdtop                                  # run the demo for 5000 time units
//	mdtop -until 20000                     # run longer
//	mdtop -csv                             # dump the recorded series as CSV
//	mdtop -connect http://localhost:7171   # watch a running mdserve: every
//	                                       # advertised item over ONE mux session
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/pipes"
)

func main() {
	until := flag.Int64("until", 5000, "simulated time units to run")
	csv := flag.Bool("csv", false, "emit recorded series as CSV")
	dot := flag.Bool("dot", false, "emit the live metadata dependency graph as Graphviz DOT")
	wall := flag.Int("wall", 0, "run on the wall clock for this many seconds instead of the simulation")
	jsonOut := flag.Bool("json", false, "emit a JSON snapshot of all included metadata")
	connect := flag.String("connect", "", "attach to a running mdserve at this base URL instead of simulating")
	item := flag.String("item", "", "with -connect: item to watch as registry/kind (default: all advertised)")
	frames := flag.Int("frames", 5, "with -connect: number of watch frames to print")
	since := flag.Uint64("since", 0, "with -connect: resume the watch after this version")
	flag.Parse()

	if *connect != "" {
		must(runConnect(*connect, *item, *frames, *since, os.Stdout))
		return
	}
	if *wall > 0 {
		runWall(*wall)
		return
	}

	schema := pipes.Schema{Name: "reading", Fields: []pipes.Field{
		{Name: "sensor", Type: "int"},
		{Name: "value", Type: "int"},
	}}

	sys := pipes.NewSystem(pipes.WithStatWindow(100))
	mk := func(i int) pipes.Tuple { return pipes.Tuple{i % 8, i % 50} }
	gen := pipes.NewPoisson(0, 0.2, 0, 42)
	gen.MakeTup = mk

	src := sys.Source("sensors", schema, gen, 0.2)
	hot := src.Filter("hot", func(t pipes.Tuple) bool { return t[1].(int) >= 25 })
	w := hot.Window("w", 500)
	counts := w.GroupAggregate("bySensor", 0, pipes.NewCount())
	counts.Sink("app", nil)

	rec := sys.NewRecorder(250)
	defer rec.Close()
	must(rec.Track("src.outputRate", src.Metadata(), pipes.KindOutputRate))
	must(rec.Track("hot.selectivity", hot.Metadata(), pipes.KindSelectivity))
	must(rec.Track("hot.avgInputRate", hot.Metadata(), pipes.KindAvgInputRate))
	must(rec.Track("agg.stateSize", counts.Metadata(), pipes.KindStateSize))

	sys.Run(pipes.Time(*until))

	if *dot {
		fmt.Print(sys.DependencyDOT())
		return
	}
	if *jsonOut {
		raw, err := sys.SnapshotJSON()
		must(err)
		fmt.Println(string(raw))
		return
	}
	if *csv {
		if err := rec.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("metadata inventory at t=%d (included = has a handler):\n\n", sys.Now())
	fmt.Println(sys.Inventory())
	fmt.Println("recorded series (mean / last / max):")
	for _, name := range rec.Names() {
		s := rec.Series(name)
		fmt.Printf("  %-18s mean=%-10.4g last=%-10.4g max=%-10.4g samples=%d\n",
			name, s.Mean(), s.Last().Value, s.Max(), len(s.Samples))
	}
	fmt.Println("\nframework activity:")
	must(pipes.WriteStats(os.Stdout, sys.Env().Stats().Snapshot()))
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
