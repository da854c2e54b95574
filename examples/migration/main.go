// Migration demonstrates closed-loop adaptive maintenance (Section
// 3.2 as a live controller): a derived metadata item declares all
// three maintenance forms, and as its workload shifts the controller
// live-migrates it — subscribers, last-good value, and dependents all
// preserved — to whichever mechanism is cheapest:
//
//   - hot reads over quiet inputs -> triggered (recompute only when an
//     input actually changes, reads are free);
//   - hot input churn, almost never read -> on-demand (recompute only
//     when somebody asks);
//   - hot reads AND hot churn under a freshness SLO -> periodic at the
//     SLO window (one recompute per window, regardless of load).
//
// Run with:
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"os"

	"repro/pipes"
)

func main() {
	sys := pipes.NewSystem(pipes.WithAdaptiveMaintenance(pipes.AdaptConfig{
		Interval:   100, // sample each item's economics every 100 time units
		Hysteresis: 0.1, // migrate only on a >=10% estimated saving
		MinDwell:   -1,  // demo: no dwell, react on the first sample
	}))
	schema := pipes.Schema{Name: "events", Fields: []pipes.Field{{Name: "v", Type: "int"}}}
	node := sys.Source("op", schema, nil, 0)
	reg := node.Metadata()

	// "queue" is event-driven source metadata: it republishes on every
	// "enq" event. "load" derives from it and declares an AdaptSpec —
	// the same computation in on-demand, periodic, and triggered form —
	// which is what makes it migratable at runtime.
	depth := 0
	check(reg.Define(&pipes.Definition{
		Kind:   "queue",
		Events: []string{"enq"},
		Build: func(*pipes.BuildContext) (pipes.Handler, error) {
			return pipes.NewTriggered(func(pipes.Time) (pipes.MetaValue, error) {
				return float64(depth), nil
			}), nil
		},
	}))
	compute := func(ctx *pipes.BuildContext) pipes.ComputeFunc {
		dep := ctx.Dep(0)
		return func(pipes.Time) (pipes.MetaValue, error) {
			f, err := dep.Float()
			if err != nil {
				return nil, err
			}
			return f / 10, nil
		}
	}
	check(reg.Define(&pipes.Definition{
		Kind: "load",
		Deps: []pipes.DepRef{pipes.Dep(pipes.SelfNode(), "queue")},
		Adapt: &pipes.AdaptSpec{
			OnDemand:  compute,
			Triggered: compute,
			Periodic: func(ctx *pipes.BuildContext) pipes.WindowComputeFunc {
				dep := ctx.Dep(0)
				return func(_, _ pipes.Time) (pipes.MetaValue, error) {
					f, err := dep.Float()
					if err != nil {
						return nil, err
					}
					return f / 10, nil
				}
			},
			Window: 100,
		},
		Build: func(ctx *pipes.BuildContext) (pipes.Handler, error) {
			return pipes.NewOnDemand(compute(ctx)), nil
		},
	}))

	sub, err := node.Subscribe("load")
	check(err)
	defer sub.Unsubscribe()

	// Hand "load" to the controller: freshness SLO 100 (values may be
	// up to 100 units stale, so a periodic cadence is admissible),
	// recompute cost hint 50.
	check(node.Autotune("load", 100, 50))

	read := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sub.Float(); err != nil {
				check(err)
			}
		}
	}
	churn := func(n int) {
		for i := 0; i < n; i++ {
			depth++
			reg.FireEvent("enq")
		}
	}
	phase := func(name string, reads, updates int) {
		read(reads)
		churn(updates)
		sys.Run(sys.Now() + 100) // the sampling tick fires in here
		mech, _ := reg.Mechanism("load")
		desc := mech.String()
		if w, ok := reg.Window("load"); ok && mech == pipes.PeriodicMechanism {
			desc = fmt.Sprintf("%s(w=%d)", mech, w)
		}
		fmt.Printf("  %-22s %6d %9d   %s\n", name, reads, updates, desc)
	}

	fmt.Println("adaptive maintenance of one derived item (\"load\"), sampled every 100 units:")
	fmt.Printf("  %-22s %6s %9s   %s\n", "phase", "reads", "updates", "mechanism after")
	phase("read-heavy", 200, 0)
	phase("write-heavy", 1, 300)
	phase("mixed under SLO", 200, 300)

	fmt.Println("\nmigrations performed:")
	for _, m := range sys.AdaptiveMigrations() {
		fmt.Printf("  %s\n", m)
	}
	v, err := sub.Float()
	check(err)
	fmt.Printf("\ntotal live migrations: %d; load = %.1f (queue depth %d, correct: %v)\n",
		sys.Env().Stats().Migrations.Load(), v, depth, v == float64(depth)/10)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
