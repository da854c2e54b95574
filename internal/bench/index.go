package bench

import "repro/internal/clock"

// Experiment is one entry of the experiment index (DESIGN.md §3): a
// figure or quantitative claim of the paper and the driver that prints
// it at print scale. Each entry's claim is asserted by a named test in
// this package; the index is the one way to print it.
type Experiment struct {
	// ID is the short name mdbench selects with -exp (e.g. "e1").
	ID string
	// Desc is the one-line description mdbench -list prints.
	Desc string
	// Run drives the experiment and renders its table.
	Run func() *Table
}

// Experiments returns the experiment index in print order (by id
// length, then id). elapsed reports the wall-clock nanoseconds of
// running its argument; E9 and C1 time real work through it, so this
// package stays free of wall-time dependencies.
func Experiments(elapsed func(func()) int64) []Experiment {
	return []Experiment{
		{"c1", "contention: parallel reads & churn across dependency scopes", func() *Table {
			// Both updaters: inline (workers=0) and a 2-worker pool.
			return c1Table(append(
				runC1([]int{1, 2, 4, 8}, 64, 100000, 0, elapsed),
				runC1([]int{1, 2, 4, 8}, 64, 100000, 2, elapsed)...))
		}},
		{"e1", "Figure 4: concurrent periodic access", func() *Table {
			return runE1(8).table()
		}},
		{"e2", "Figure 5: on-demand aggregation", func() *Table {
			return runE2(20, 80, 10, 50).table()
		}},
		{"e3", "provision scalability (pub-sub vs maintain-all)", func() *Table {
			return e3Table(runE3([]int{10, 50, 100, 200, 400}, 0.1, 2000))
		}},
		{"e4", "freshness vs overhead (window sweep)", func() *Table {
			return e4Table(runE4([]clock.Duration{10, 20, 50, 100, 200, 500}, 1.0, 0.2, 500, 8000))
		}},
		{"e5", "triggered vs periodic maintenance", func() *Table {
			return e5Table(runE5([]clock.Duration{25, 50, 100, 200, 400, 800}, 20, 8000))
		}},
		{"e6", "handler sharing across consumers", func() *Table {
			return e6Table(runE6([]int{1, 2, 4, 8, 16, 32, 64}, 1000))
		}},
		{"e7", "automated dependency inclusion", func() *Table {
			return e7Table(runE7([]int{1, 2, 5, 10, 20, 50, 100, 200}))
		}},
		{"e8", "Figure 3: cost model under window change", func() *Table {
			return runE8(0.1, 100, 4000, 200).table()
		}},
		{"e9", "periodic update worker pool", func() *Table {
			return e9Table(runE9([]int{0, 1, 2, 4, 8}, 400, 25, 20000, elapsed))
		}},
		{"f2", "Figure 2: metadata taxonomy, live", f2Table},
		{"e10", "Chain scheduling vs baselines", func() *Table {
			return e10Table(runE10(1200))
		}},
		{"e11", "load shedding under overload", func() *Table {
			return e11Table(runE11(5, 12000))
		}},
		{"e12", "subscription churn and auto-removal", func() *Table {
			return e12Table(runE12(200, 10, 20))
		}},
		{"e13", "dynamic dependency resolution", func() *Table {
			return e13Table(runE13(50))
		}},
		{"e14", "metadata inheritance and redefinition", func() *Table {
			return runE14().table()
		}},
		{"e15", "exchangeable module metadata", func() *Table {
			return e15Table(runE15(20, 3000))
		}},
		{"e16", "adaptive filter reordering (optimizer)", func() *Table {
			return runE16(3000).table()
		}},
		{"e17", "join-order advisor on rate metadata", func() *Table {
			return e17Table(runE17())
		}},
		{"e18", "QoS-priority scheduling vs round-robin", func() *Table {
			return e18Table(runE18(3000))
		}},
	}
}
