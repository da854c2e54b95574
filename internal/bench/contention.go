package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
)

// c1Row is one contention measurement: g goroutines hammering value
// reads and subscription churn over independent dependency scopes.
type c1Row struct {
	// Goroutines is the number of concurrent clients.
	Goroutines int
	// Workers is the periodic-updater pool size (0 = inline).
	Workers int
	// ReadOps / ReadNs measure the lock-free value read phase; the
	// op counts are the operations the goroutines completed.
	ReadOps int64
	ReadNs  int64
	// ChurnOps / ChurnNs measure the subscribe/unsubscribe phase.
	ChurnOps int64
	ChurnNs  int64
}

// runC1 measures structural-lock contention (the scalability target of
// the dependency-scope locking scheme). It builds `registries`
// independent registries — each its own dependency-scope component,
// carrying a periodic item and a triggered dependent — pins one
// subscription per registry, then for each goroutine count runs two
// timed phases:
//
//   - read: every goroutine performs `ops` value reads on pinned
//     subscriptions (round-robin over registries) while the virtual
//     clock advances, so periodic publishes and trigger propagation
//     run concurrently on the updater pool;
//   - churn: every goroutine performs `ops` subscribe/unsubscribe
//     cycles of the triggered item on its own registry slice.
//
// Under a single graph-level lock both phases serialize; with
// per-scope locks and atomic value snapshots they scale with cores.
// elapsed returns the wall-clock nanoseconds of running its argument
// (injected so this package stays free of wall-time dependencies).
func runC1(goroutineCounts []int, registries, ops, workers int, elapsed func(func()) int64) []c1Row {
	var rows []c1Row
	for _, g := range goroutineCounts {
		vc := clock.NewVirtual()
		var updater core.Updater
		if workers == 0 {
			updater = core.NewInlineUpdater()
		} else {
			updater = core.NewPoolUpdater(workers)
		}
		env := core.NewEnv(vc, core.WithUpdater(updater))

		regs := make([]*core.Registry, registries)
		pinned := make([]*core.Subscription, registries)
		for i := range regs {
			r := env.NewRegistry(fmt.Sprintf("op%d", i))
			r.MustDefine(&core.Definition{
				Kind: "rate",
				Build: func(*core.BuildContext) (core.Handler, error) {
					return core.NewPeriodic(10, func(start, end clock.Time) (core.Value, error) {
						return float64(end), nil
					}), nil
				},
			})
			r.MustDefine(&core.Definition{
				Kind: "echo",
				Deps: []core.DepRef{core.Dep(core.Self(), "rate")},
				Build: func(ctx *core.BuildContext) (core.Handler, error) {
					h := ctx.Dep(0)
					return core.NewTriggered(func(clock.Time) (core.Value, error) { return h.Float() }), nil
				},
			})
			s, err := r.Subscribe("echo")
			if err != nil {
				panic(err)
			}
			regs[i], pinned[i] = r, s
		}

		row := c1Row{Goroutines: g, Workers: workers}

		// Phase 1: parallel value reads racing periodic publishes.
		var done atomic.Int64
		row.ReadNs = elapsed(func() {
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						if _, err := pinned[(w+i)%registries].Value(); err != nil {
							panic(err)
						}
					}
					done.Add(int64(ops))
				}(w)
			}
			vc.Advance(1000)
			wg.Wait()
			updater.WaitIdle()
		})
		row.ReadOps = done.Swap(0)

		// Phase 2: parallel subscription churn, one registry slice per
		// goroutine so the structural work lands on disjoint
		// dependency scopes.
		row.ChurnNs = elapsed(func() {
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := regs[w%registries]
					for i := 0; i < ops/10; i++ {
						s, err := r.Subscribe("echo")
						if err != nil {
							panic(err)
						}
						s.Unsubscribe()
					}
					done.Add(int64(ops / 10))
				}(w)
			}
			wg.Wait()
		})
		row.ChurnOps = done.Load()

		for _, s := range pinned {
			s.Unsubscribe()
		}
		updater.Stop()
		rows = append(rows, row)
	}
	return rows
}

// c1Table renders the contention sweep.
func c1Table(rows []c1Row) *Table {
	t := &Table{
		Title: "C1 — structural-lock contention: parallel reads & subscription churn",
		Note: "independent registries are independent dependency-scope components: value reads are lock-free atomic\n" +
			"snapshots and structural churn takes only the owning component's lock, so ns/op should stay flat (or drop)\n" +
			"as goroutines grow; a single graph-level lock makes both columns rise with the goroutine count.",
		Header: []string{"goroutines", "workers", "read ns/op", "churn ns/op"},
	}
	for _, r := range rows {
		t.Add(r.Goroutines, r.Workers,
			float64(r.ReadNs)/float64(max(r.ReadOps, 1)),
			float64(r.ChurnNs)/float64(max(r.ChurnOps, 1)))
	}
	return t
}
