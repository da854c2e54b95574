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
		elapsed := func(fn func()) int64 {
			start := time.Now()
			fn()
			return time.Since(start).Nanoseconds()
		}
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
	"e19": {"batched update pipeline vs per-handler ticks", func() *bench.Table {
		elapsed := func(fn func()) int64 {
			start := time.Now()
			fn()
			return time.Since(start).Nanoseconds()
		}
		return bench.E19Table(bench.RunE19(1000, 4, 50, elapsed))
	}},
	"e20": {"hot-item read fan-out: memoized vs recompute", func() *bench.Table {
		elapsed := func(fn func()) int64 {
			start := time.Now()
			fn()
			return time.Since(start).Nanoseconds()
		}
		switch *memoFlag {
		case "both":
			return bench.E20Table(bench.RunE20(8, 200000, 4, elapsed))
		case "on":
			return bench.E20Table([]bench.E20Row{bench.RunE20Mode("memoized", 8, 200000, 4, elapsed)})
		case "off":
			return bench.E20Table([]bench.E20Row{bench.RunE20Mode("recompute", 8, 200000, 4, elapsed)})
		default:
			fmt.Fprintln(os.Stderr, `-memo must be "both", "on", or "off"`)
			os.Exit(2)
			return nil
		}
	}},
	"e21": {"incremental delta propagation vs full fold", func() *bench.Table {
		elapsed := func(fn func()) int64 {
			start := time.Now()
			fn()
			return time.Since(start).Nanoseconds()
		}
		var rows []bench.E21Row
		for _, n := range []int{100, 1000} {
			switch *deltaFlag {
			case "both":
				rows = append(rows, bench.RunE21(n, 100000, elapsed)...)
			case "on":
				rows = append(rows, bench.RunE21Mode("delta", n, 100000, elapsed))
			case "off":
				rows = append(rows, bench.RunE21Mode("fold", n, 100000, elapsed))
			default:
				fmt.Fprintln(os.Stderr, `-delta must be "both", "on", or "off"`)
				os.Exit(2)
			}
		}
		return bench.E21Table(rows)
	}},
	"e22": {"closed-loop adaptive maintenance across a phase shift", func() *bench.Table {
		elapsed := func(fn func()) int64 {
			start := time.Now()
			fn()
			return time.Since(start).Nanoseconds()
		}
		switch *adaptFlag {
		case "both":
			return bench.E22Table(bench.RunE22(40, elapsed))
		case "on":
			return bench.E22Table([]bench.E22Row{bench.RunE22Mode("adaptive", 40, elapsed)})
		case "off":
			return bench.E22Table([]bench.E22Row{
				bench.RunE22Mode("ondemand", 40, elapsed),
				bench.RunE22Mode("triggered", 40, elapsed),
			})
		default:
			fmt.Fprintln(os.Stderr, `-adapt must be "both", "on", or "off"`)
			os.Exit(2)
			return nil
		}
	}},
	"e23": {"watch fan-out: epoch-diff hub vs per-subscriber callbacks", func() *bench.Table {
		if *watchersFlag <= 0 {
			fmt.Fprintln(os.Stderr, "-watchers must be > 0")
			os.Exit(2)
		}
		elapsed := func(fn func()) int64 {
			start := time.Now()
			fn()
			return time.Since(start).Nanoseconds()
		}
		counts := []int{1000, 10000, *watchersFlag}
		if *watchersFlag <= 10000 {
			counts = []int{*watchersFlag}
		}
		return bench.E23Table(bench.RunE23(counts, 1000, elapsed))
	}},
	"e24": {"durable restart: warm recovery vs cold recompute", func() *bench.Table {
		elapsed := func(fn func()) int64 {
			start := time.Now()
			fn()
			return time.Since(start).Nanoseconds()
		}
		dir, err := os.MkdirTemp("", "mdbench-e24-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		rows, err := bench.RunE24(dir, *itemsFlag, elapsed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return bench.E24Table(rows)
	}},
	"a1": {"ablation: topological vs naive propagation", func() *bench.Table {
		return bench.A1Table(bench.RunA1([]int{2, 4, 6, 8, 10, 12}))
	}},
	"c1": {"contention: parallel reads & churn across dependency scopes", func() *bench.Table {
		if *workersFlag < 0 {
			fmt.Fprintln(os.Stderr, "-workers must be >= 0 (0 runs the inline updater)")
			os.Exit(2)
		}
		elapsed := func(fn func()) int64 {
			start := time.Now()
			fn()
			return time.Since(start).Nanoseconds()
		}
		return bench.C1Table(bench.RunC1([]int{1, 2, 4, 8}, 64, 100000, *workersFlag, elapsed))
	}},
	"f2": {"Figure 2: metadata taxonomy, live", bench.RunF2},
}

// workersFlag sets the updater pool size for experiments that take one
// (c1); 0 selects the inline updater.
var workersFlag = flag.Int("workers", 2, "updater worker pool size for c1 (0 = inline)")

// memoFlag is the e20 memoization ablation: run both modes, or only the
// memoized / recompute-per-access read path.
var memoFlag = flag.String("memo", "both", `e20 read-path ablation: "both", "on", or "off"`)

// deltaFlag is the e21 delta-propagation ablation: run both modes, or
// only the O(1) pair-apply / full-fold maintenance path.
var deltaFlag = flag.String("delta", "both", `e21 delta-propagation ablation: "both", "on", or "off"`)

// adaptFlag is the e22 adaptive-maintenance ablation: run the statics
// and the adaptive controller, only the adaptive run, or only the two
// static configurations.
var adaptFlag = flag.String("adapt", "both", `e22 adaptive-maintenance ablation: "both", "on" (adaptive only), or "off" (statics only)`)

// watchersFlag is e23's largest subscriber count; counts at or below
// 10000 run only that count, larger values run 1000/10000/N.
var watchersFlag = flag.Int("watchers", 100000, "e23 watch fan-out subscriber count")

// itemsFlag is e24's durable-plane size (subscribed items per start).
var itemsFlag = flag.Int("items", 1000, "e24 durable restart item count")

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e24, a1, c1, f2, all)")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

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
