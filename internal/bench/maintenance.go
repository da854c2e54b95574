package bench

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/core"
)

// e4Row is one point of the freshness/overhead trade-off sweep.
type e4Row struct {
	// Window is the periodic update window size.
	Window clock.Duration
	// Updates is the number of periodic updates during the run.
	Updates int64
	// MeanAbsError is the mean absolute difference between the
	// published rate and the true instantaneous rate, sampled at
	// every probe point.
	MeanAbsError float64
}

// runE4 sweeps the periodic window size for a rate measurement over a
// square-wave workload (rate alternates between hi and lo every phase
// time units). Small windows track the changes closely but update
// often; large windows are cheap but stale — the calibration knob of
// Section 3.1.
func runE4(windows []clock.Duration, hi, lo float64, phase clock.Duration, duration clock.Duration) []e4Row {
	var rows []e4Row
	for _, w := range windows {
		vc := clock.NewVirtual()
		env := core.NewEnv(vc)
		r := env.NewRegistry("op")
		var probe core.Counter
		w := w
		r.MustDefine(&core.Definition{
			Kind:  "inputRate",
			Probe: &probe,
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewPeriodic(w, func(start, end clock.Time) (core.Value, error) {
					width := end.Sub(start)
					if width == 0 {
						return 0.0, nil
					}
					return float64(probe.Take()) / float64(width), nil
				}), nil
			},
		})
		sub, err := r.Subscribe("inputRate")
		if err != nil {
			panic(err)
		}

		// Square-wave arrivals: deterministic thinning of a 1/unit
		// grid — at each tick t the true rate is hi or lo by phase.
		trueRate := func(t clock.Time) float64 {
			if (t/clock.Time(phase))%2 == 0 {
				return hi
			}
			return lo
		}
		acc := 0.0
		for t := clock.Time(1); t <= clock.Time(duration); t++ {
			t := t
			vc.Schedule(t, func(now clock.Time) {
				acc += trueRate(now)
				for acc >= 1 {
					probe.Inc()
					acc--
				}
			})
		}

		// Sample staleness each unit.
		errSum, samples := 0.0, 0
		for t := clock.Time(1); t <= clock.Time(duration); t++ {
			t := t
			vc.Schedule(t, func(now clock.Time) {
				v, _ := sub.Float()
				errSum += math.Abs(v - trueRate(now))
				samples++
			})
		}
		before := env.Stats().Snapshot()
		vc.AdvanceTo(clock.Time(duration))
		delta := env.Stats().Snapshot().Sub(before)
		rows = append(rows, e4Row{
			Window:       w,
			Updates:      delta.PeriodicUpdates,
			MeanAbsError: errSum / float64(samples),
		})
		sub.Unsubscribe()
	}
	return rows
}

// e4Table renders the sweep.
func e4Table(rows []e4Row) *Table {
	t := &Table{
		Title:  "E4 — freshness vs computational overhead (periodic window sweep)",
		Note:   "updates fall as 1/window while the staleness error grows with the window — the trade-off of Section 3.1",
		Header: []string{"window", "updates", "meanAbsError"},
	}
	for _, r := range rows {
		t.Add(int64(r.Window), r.Updates, r.MeanAbsError)
	}
	return t
}

// e5Row is one point of the triggered-vs-periodic comparison.
type e5Row struct {
	// ChangeEvery is the interval between changes of the underlying
	// item.
	ChangeEvery clock.Duration
	// Mechanism is "triggered" or "periodic".
	Mechanism string
	// Updates is the number of derived-item updates during the run.
	Updates int64
	// StaleFraction is the fraction of samples at which the derived
	// value disagreed with the underlying value.
	StaleFraction float64
}

// runE5 compares triggered and periodic maintenance for a derived item
// whose underlying item changes every changeEvery units: the triggered
// handler updates exactly once per change (cost proportional to the
// change rate, never stale at sampling points); the periodic handler
// pays its fixed rate regardless and is stale between refreshes
// (Section 3.2.3: "this causes fewer costs than a periodic update").
func runE5(changeIntervals []clock.Duration, periodicWindow clock.Duration, duration clock.Duration) []e5Row {
	var rows []e5Row
	for _, ci := range changeIntervals {
		for _, mech := range []string{"triggered", "periodic"} {
			vc := clock.NewVirtual()
			env := core.NewEnv(vc)
			r := env.NewRegistry("op")
			state := 0.0
			r.MustDefine(&core.Definition{
				Kind:   "base",
				Events: []string{"changed"},
				Build: func(*core.BuildContext) (core.Handler, error) {
					return core.NewTriggered(func(clock.Time) (core.Value, error) { return state, nil }), nil
				},
			})
			var def *core.Definition
			if mech == "triggered" {
				def = &core.Definition{
					Kind: "derived",
					Deps: []core.DepRef{core.Dep(core.Self(), "base")},
					Build: func(ctx *core.BuildContext) (core.Handler, error) {
						h := ctx.Dep(0)
						return core.NewTriggered(func(clock.Time) (core.Value, error) { return h.Float() }), nil
					},
				}
			} else {
				def = &core.Definition{
					Kind: "derived",
					Deps: []core.DepRef{core.Dep(core.Self(), "base")},
					Build: func(ctx *core.BuildContext) (core.Handler, error) {
						h := ctx.Dep(0)
						return core.NewPeriodic(periodicWindow, func(a, b clock.Time) (core.Value, error) {
							return h.Float()
						}), nil
					},
				}
			}
			r.MustDefine(def)
			sub, err := r.Subscribe("derived")
			if err != nil {
				panic(err)
			}

			// State changes.
			for t := clock.Time(ci); t <= clock.Time(duration); t += clock.Time(ci) {
				vc.Schedule(t, func(clock.Time) {
					state++
					r.FireEvent("changed")
				})
			}
			// Staleness samples, midway between potential changes.
			stale, samples := 0, 0
			for t := clock.Time(1); t <= clock.Time(duration); t += 7 {
				vc.Schedule(t, func(clock.Time) {
					v, _ := sub.Float()
					if v != state {
						stale++
					}
					samples++
				})
			}
			before := env.Stats().Snapshot()
			vc.AdvanceTo(clock.Time(duration))
			delta := env.Stats().Snapshot().Sub(before)
			updates := delta.TriggeredUpdates
			if mech == "periodic" {
				updates = delta.PeriodicUpdates
			} else {
				// Exclude the base item's own event refreshes: one per
				// change.
				updates -= int64(duration / ci)
			}
			rows = append(rows, e5Row{
				ChangeEvery:   ci,
				Mechanism:     mech,
				Updates:       updates,
				StaleFraction: float64(stale) / float64(samples),
			})
			sub.Unsubscribe()
		}
	}
	return rows
}

// e5Table renders the comparison.
func e5Table(rows []e5Row) *Table {
	t := &Table{
		Title:  "E5 — triggered vs periodic maintenance",
		Note:   "triggered updates scale with the change rate and are never stale; periodic updates cost a fixed rate and go stale between windows",
		Header: []string{"changeEvery", "mechanism", "updates", "staleFraction"},
	}
	for _, r := range rows {
		t.Add(int64(r.ChangeEvery), r.Mechanism, r.Updates, r.StaleFraction)
	}
	return t
}

// e9Row is one point of the worker-pool throughput experiment.
type e9Row struct {
	// Workers is the pool size (0 = inline updater).
	Workers int
	// Updates is the number of periodic updates completed.
	Updates int64
	// NsTotal is the wall-clock nanoseconds for the run.
	NsTotal int64
}

// runE9 measures the periodic-update throughput of the worker pool
// (Section 4.3): nHandlers periodic items whose computation burns
// spinWork iterations, advanced through ticks clock windows, executed
// by pools of various sizes. The distribution over workers speeds up
// large graphs; "for small query graphs a single thread is
// sufficient".
func runE9(workerCounts []int, nHandlers, ticks, spinWork int, elapsed func(func()) int64) []e9Row {
	var rows []e9Row
	for _, k := range workerCounts {
		vc := clock.NewVirtual()
		var updater core.Updater
		if k == 0 {
			updater = core.NewInlineUpdater()
		} else {
			updater = core.NewPoolUpdater(k)
		}
		env := core.NewEnv(vc, core.WithUpdater(updater))
		r := env.NewRegistry("op")
		for i := 0; i < nHandlers; i++ {
			r.MustDefine(&core.Definition{
				Kind: core.Kind(fmt.Sprintf("item%d", i)),
				Build: func(*core.BuildContext) (core.Handler, error) {
					return core.NewPeriodic(10, func(a, b clock.Time) (core.Value, error) {
						// The spin result is the published value, so
						// the work cannot be optimized away.
						s := 0.0
						for j := 0; j < spinWork; j++ {
							s += math.Sqrt(float64(j))
						}
						return s, nil
					}), nil
				},
			})
		}
		var subs []*core.Subscription
		for i := 0; i < nHandlers; i++ {
			s, err := r.Subscribe(core.Kind(fmt.Sprintf("item%d", i)))
			if err != nil {
				panic(err)
			}
			subs = append(subs, s)
		}
		before := env.Stats().Snapshot()
		ns := elapsed(func() {
			vc.Advance(clock.Duration(10 * ticks))
			updater.WaitIdle()
		})
		delta := env.Stats().Snapshot().Sub(before)
		rows = append(rows, e9Row{Workers: k, Updates: delta.PeriodicUpdates, NsTotal: ns})
		for _, s := range subs {
			s.Unsubscribe()
		}
		updater.Stop()
	}
	return rows
}

// e9Table renders the throughput sweep.
func e9Table(rows []e9Row) *Table {
	t := &Table{
		Title: "E9 — periodic update execution: worker pool sweep",
		Note: "periodic update tasks distribute over a small worker pool (Section 4.3); workers=0 is the inline single-thread\n" +
			"executor. Computation runs under per-handler locks only, so updates of independent items parallelize on\n" +
			"multi-core hosts; on a single-core host the sweep measures the pool's distribution overhead instead.",
		Header: []string{"workers", "updates", "ns/update"},
	}
	for _, r := range rows {
		perUpdate := int64(0)
		if r.Updates > 0 {
			perUpdate = r.NsTotal / r.Updates
		}
		t.Add(r.Workers, r.Updates, perUpdate)
	}
	return t
}
