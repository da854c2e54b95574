package adapt

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// buildLoop defines a triggered source "src" (refreshed by event "w")
// and a migratable item "hot" = src + 1 with all three maintenance
// forms, starting on-demand; pure is its AdaptSpec.Pure declaration.
func buildLoop(t *testing.T, pure bool, opts ...core.EnvOption) (*core.Env, *clock.Virtual, *core.Registry, *core.Subscription) {
	t.Helper()
	vc := clock.NewVirtual()
	env := core.NewEnv(vc, opts...)
	r := env.NewRegistry("n")
	srcVal := 5.0
	r.MustDefine(&core.Definition{
		Kind:   "src",
		Events: []string{"w"},
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return srcVal, nil
			}), nil
		},
	})
	compute := func(ctx *core.BuildContext) core.ComputeFunc {
		dep := ctx.Dep(0)
		return func(clock.Time) (core.Value, error) {
			f, err := dep.Float()
			if err != nil {
				return nil, err
			}
			return f + 1, nil
		}
	}
	r.MustDefine(&core.Definition{
		Kind: "hot",
		Deps: []core.DepRef{core.Dep(core.Self(), "src")},
		Adapt: &core.AdaptSpec{
			OnDemand:  compute,
			Triggered: compute,
			Periodic: func(ctx *core.BuildContext) core.WindowComputeFunc {
				dep := ctx.Dep(0)
				return func(_, _ clock.Time) (core.Value, error) {
					f, err := dep.Float()
					if err != nil {
						return nil, err
					}
					return f + 1, nil
				}
			},
			Window: 50,
			Pure:   pure,
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(compute(ctx)), nil
		},
		Pure: pure,
	})
	s, err := r.Subscribe("hot")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Unsubscribe)
	return env, vc, r, s
}

// TestControllerClosedLoop drives one item through three workload
// phases and checks the controller live-migrates it to the mechanism
// the cost model prescribes for each: read-heavy -> triggered,
// write-heavy and rarely read -> on-demand, read+write-heavy under a
// loose SLO and costly compute -> periodic at the SLO window.
func TestControllerClosedLoop(t *testing.T) {
	env, vc, r, s := buildLoop(t, false)
	c := New(r, Config{Interval: 100, MinDwell: -1, MinWindow: 10, MaxWindow: 1000})
	// SLO 100 and recompute cost 50: expensive enough that a periodic
	// cadence wins when both reads and writes are hot.
	if err := c.Track("hot", 100, 50); err != nil {
		t.Fatal(err)
	}

	read := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if v, err := s.Float(); err != nil || v != 6 {
				t.Fatalf("hot = %v, %v, want 6", v, err)
			}
		}
	}
	write := func(n int) {
		for i := 0; i < n; i++ {
			r.FireEvent("w")
		}
	}

	// Phase 1: hot reads, no writes. On-demand recomputes per access
	// (rate 2*50); triggered would cost nothing.
	read(200)
	vc.Advance(100)
	ms, err := c.Step()
	if err != nil || len(ms) != 1 || ms[0].To != core.TriggeredMechanism {
		t.Fatalf("phase 1: step = %v, %v, want migration to triggered", ms, err)
	}
	read(1)

	// Phase 2: hot writes, almost no reads (one verification read in
	// the interval). Triggered recomputes per input change for nobody;
	// on-demand pays only for what is read.
	write(300)
	vc.Advance(100)
	ms, err = c.Step()
	if err != nil || len(ms) != 1 || ms[0].To != core.OnDemandMechanism {
		t.Fatalf("phase 2: step = %v, %v, want migration to on-demand", ms, err)
	}
	read(1)

	// Phase 3: hot reads AND hot writes. Every event-driven mechanism
	// pays per access or per change; the 100-unit SLO admits a periodic
	// cadence at 1/100th the cost.
	read(200)
	write(300)
	vc.Advance(100)
	ms, err = c.Step()
	if err != nil || len(ms) != 1 || ms[0].To != core.PeriodicMechanism || ms[0].Window != 100 {
		t.Fatalf("phase 3: step = %v, %v, want migration to periodic(100)", ms, err)
	}
	read(1)

	if got := env.Stats().Migrations.Load(); got != 3 {
		t.Fatalf("Migrations = %d, want 3", got)
	}
}

// TestControllerPhaseFlipCost pins what the closed loop buys: across a
// 100:1 -> 1:100 read/write flip the controller's maintenance cost
// stays within 1.2x of the best static mechanism in each phase, while
// each static mechanism pays at least 2x on its off-phase. Cost is
// the hot item's recomputes over the steady second half of a phase.
func TestControllerPhaseFlipCost(t *testing.T) {
	const rounds = 40
	type cost struct{ readHeavy, writeHeavy, migrations int64 }
	run := func(static core.Mechanism, adaptive bool) cost {
		env, vc, r, s := buildLoop(t, false)
		if static != core.OnDemandMechanism {
			if err := r.Migrate("hot", static, 0); err != nil {
				t.Fatal(err)
			}
		}
		var c *Controller
		if adaptive {
			c = New(r, Config{Interval: 10, Hysteresis: 0.2, MinDwell: -1})
			if err := c.Track("hot", 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		st := env.Stats()
		var writes int64
		// src refreshes once per write under every mechanism; what is
		// left of the two counters is hot's own recomputes.
		computes := func() int64 {
			return st.OnDemandComputes.Load() + st.TriggeredUpdates.Load() - writes
		}
		phase := func(reads, writesPerRound int) int64 {
			var start int64
			for i := 0; i < rounds; i++ {
				if i == rounds/2 {
					start = computes()
				}
				for j := 0; j < reads; j++ {
					if v, err := s.Float(); err != nil || v != 6 {
						t.Fatalf("hot = %v, %v, want 6", v, err)
					}
				}
				for j := 0; j < writesPerRound; j++ {
					writes++
					r.FireEvent("w")
				}
				vc.Advance(10)
				if c != nil {
					if _, err := c.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			return computes() - start
		}
		before := st.Migrations.Load()
		readHeavy := phase(100, 1)
		writeHeavy := phase(1, 100)
		return cost{readHeavy, writeHeavy, st.Migrations.Load() - before}
	}
	od := run(core.OnDemandMechanism, false)
	trig := run(core.TriggeredMechanism, false)
	ad := run(core.OnDemandMechanism, true)

	// Best static per phase: triggered while reads dominate (one
	// compute per write), on-demand while writes do (one per read).
	bestA, bestB := trig.readHeavy, od.writeHeavy
	if bestA == 0 || bestB == 0 {
		t.Fatalf("degenerate steady-state costs: bestA=%d bestB=%d", bestA, bestB)
	}
	if float64(ad.readHeavy) > 1.2*float64(bestA) || float64(ad.writeHeavy) > 1.2*float64(bestB) {
		t.Fatalf("adaptive computes = %d / %d, want <= 1.2x best static (%d / %d)",
			ad.readHeavy, ad.writeHeavy, bestA, bestB)
	}
	if od.readHeavy < 2*bestA || trig.writeHeavy < 2*bestB {
		t.Fatalf("static off-phase computes = %d (on-demand, read-heavy) / %d (triggered, write-heavy), want >= 2x best (%d / %d)",
			od.readHeavy, trig.writeHeavy, bestA, bestB)
	}
	if ad.migrations < 2 || od.migrations != 0 || trig.migrations != 0 {
		t.Fatalf("migrations = %d adaptive, %d / %d static; want >= 2 and 0 / 0",
			ad.migrations, od.migrations, trig.migrations)
	}
}

// TestControllerDwellDamping checks MinDwell: a clearly beneficial
// migration is still held back until the item has dwelled enough
// sampling intervals, then fires.
func TestControllerDwellDamping(t *testing.T) {
	_, vc, r, s := buildLoop(t, false)
	c := New(r, Config{Interval: 100, MinDwell: 2})
	if err := c.Track("hot", 0, 1); err != nil {
		t.Fatal(err)
	}
	for round := 1; ; round++ {
		for i := 0; i < 200; i++ {
			s.Float()
		}
		vc.Advance(100)
		ms, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if round < 2 {
			if len(ms) != 0 {
				t.Fatalf("round %d: migrated before MinDwell: %v", round, ms)
			}
			continue
		}
		if len(ms) != 1 || ms[0].To != core.TriggeredMechanism {
			t.Fatalf("round %d: step = %v, want migration to triggered", round, ms)
		}
		break
	}
}

// TestControllerPricesPureByEnvMemo pins that a Pure on-demand item is
// priced as memoized only when its env memoizes. 200 reads against 10
// input changes per interval, cost 50: without the memo every read
// recomputes, so triggered (one compute per change) is 20x cheaper and
// the first Step migrates; with the memo on-demand recomputes once per
// change plus the first read, as triggered would, and stays.
func TestControllerPricesPureByEnvMemo(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []core.EnvOption
		computes int64
		want     core.Mechanism
	}{
		{"memo off", nil, 200, core.TriggeredMechanism},
		{"memo on", []core.EnvOption{core.WithMemoizedOnDemand()}, 11, core.OnDemandMechanism},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, vc, r, s := buildLoop(t, true, tc.opts...)
			c := New(r, Config{Interval: 100, MinDwell: -1})
			if err := c.Track("hot", 0, 50); err != nil {
				t.Fatal(err)
			}
			before := env.Stats().Snapshot()
			for i := 0; i < 200; i++ {
				if i%20 == 19 {
					r.FireEvent("w")
				}
				if v, err := s.Float(); err != nil || v != 6 {
					t.Fatalf("hot = %v, %v, want 6", v, err)
				}
			}
			if got := env.Stats().Snapshot().Sub(before).OnDemandComputes; got != tc.computes {
				t.Fatalf("on-demand computes = %d, want %d", got, tc.computes)
			}
			vc.Advance(100)
			ms, err := c.Step()
			if err != nil {
				t.Fatal(err)
			}
			if mech, _ := r.Mechanism("hot"); mech != tc.want {
				t.Fatalf("after the first step: %v (migrations %v), want %v", mech, ms, tc.want)
			}
		})
	}
}

// TestAdaptablePureNeedsMemoizedDeps pins that a Pure on-demand item
// over an on-demand dependency that is not memoized is not priced as
// memoized: the dependency recomputes on access without publishing, so
// no stamp over it holds and the item recomputes on every read. Over a
// Pure dependency both are memoized and it is.
func TestAdaptablePureNeedsMemoizedDeps(t *testing.T) {
	for _, srcPure := range []bool{false, true} {
		env := core.NewEnv(clock.NewVirtual(), core.WithMemoizedOnDemand())
		r := env.NewRegistry("n")
		r.MustDefine(&core.Definition{
			Kind: "src",
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewOnDemand(func(clock.Time) (core.Value, error) { return 5.0, nil }), nil
			},
			Pure: srcPure,
		})
		compute := func(ctx *core.BuildContext) core.ComputeFunc {
			dep := ctx.Dep(0)
			return func(clock.Time) (core.Value, error) {
				f, err := dep.Float()
				return f + 1, err
			}
		}
		r.MustDefine(&core.Definition{
			Kind:  "hot",
			Deps:  []core.DepRef{core.Dep(core.Self(), "src")},
			Adapt: &core.AdaptSpec{OnDemand: compute, Triggered: compute, Pure: true},
			Build: func(ctx *core.BuildContext) (core.Handler, error) {
				return core.NewOnDemand(compute(ctx)), nil
			},
			Pure: true,
		})
		s, err := r.Subscribe("hot")
		if err != nil {
			t.Fatal(err)
		}
		before := env.Stats().Snapshot()
		for i := 0; i < 10; i++ {
			if v, err := s.Float(); err != nil || v != 6 {
				t.Fatalf("hot = %v, %v, want 6", v, err)
			}
		}
		computes := env.Stats().Snapshot().Sub(before).OnDemandComputes
		pure, ok := r.Adaptable("hot")
		if !ok || pure != srcPure {
			t.Errorf("src Pure=%v: Adaptable(hot) = %v, %v; want %v, true (%d on-demand computes over 10 reads)", srcPure, pure, ok, srcPure, computes)
		}
		if memoized := computes < 10; memoized != pure {
			t.Errorf("src Pure=%v: %d on-demand computes over 10 reads, but Adaptable reports pure=%v", srcPure, computes, pure)
		}
		s.Unsubscribe()
	}
}

// TestControllerTrackErrors pins Track's failure modes.
func TestControllerTrackErrors(t *testing.T) {
	_, _, r, _ := buildLoop(t, false)
	c := New(r, Config{})
	if err := c.Track("src", 0, 0); err == nil {
		t.Fatal("tracking a non-migratable item succeeded")
	}
	if err := c.Track("ghost", 0, 0); err == nil {
		t.Fatal("tracking an undefined item succeeded")
	}
}

// TestPlanHysteresis pins the hysteresis damper on a near-break-even
// workload: a candidate that is better but not better *enough* does
// not trigger a migration.
func TestPlanHysteresis(t *testing.T) {
	o := Observation{
		Kind: "x", Reads: 2.2, Updates: 2.0, Cost: 1,
		Mech: core.OnDemandMechanism, Dwell: 100,
	}
	// Triggered (rate 2.0) beats on-demand (2.2), but not by 20%.
	c := New(nil, Config{Hysteresis: 0.2, MinDwell: -1})
	if ms := c.Plan([]Observation{o}); len(ms) != 0 {
		t.Fatalf("plan with 20%% hysteresis = %v, want none", ms)
	}
	// Without hysteresis the same workload migrates.
	c = New(nil, Config{Hysteresis: -1, MinDwell: -1}) // -1 clamps to 0
	ms := c.Plan([]Observation{o})
	if len(ms) != 1 || ms[0].To != core.TriggeredMechanism {
		t.Fatalf("plan without hysteresis = %v, want migration to triggered", ms)
	}
}

// TestConfigDefaults: the zero Config selects every documented default,
// and a negative Hysteresis or MinDwell turns its damper off.
func TestConfigDefaults(t *testing.T) {
	got := New(nil, Config{}).Config()
	want := Config{Interval: 100, Hysteresis: 0.2, MinDwell: 2, MinWindow: 10, MaxWindow: 1000, CostHint: 1}
	if got != want {
		t.Fatalf("zero Config = %+v, want %+v", got, want)
	}
	if got := New(nil, Config{Hysteresis: -1, MinDwell: -1}).Config(); got.Hysteresis != 0 || got.MinDwell != 0 {
		t.Fatalf("negative dampers = %+v, want Hysteresis 0, MinDwell 0", got)
	}
}

// FuzzMigrationPlan fuzzes the planner over arbitrary workload
// observations and configurations, checking that every planned
// migration is legal (dynamic target mechanisms only, windows positive
// and clamped, periodic only under an SLO) and that the loop cannot
// flap: re-planning the same workload right after applying the plan's
// own decision yields no further migration, for any hysteresis >= 0.
func FuzzMigrationPlan(f *testing.F) {
	f.Add(uint16(200), uint16(1), uint8(1), uint16(0), uint8(1), uint8(0), false, uint8(20))
	f.Add(uint16(0), uint16(300), uint8(1), uint16(0), uint8(3), uint8(0), false, uint8(0))
	f.Add(uint16(10), uint16(10), uint8(50), uint16(100), uint8(2), uint8(50), true, uint8(20))
	f.Add(uint16(1), uint16(1), uint8(0), uint16(5000), uint8(2), uint8(255), true, uint8(100))
	f.Fuzz(func(t *testing.T, reads, writes uint16, cost uint8, slo uint16,
		mech, window uint8, pure bool, hyst uint8) {
		from := core.Mechanism(1 + mech%3)
		o := Observation{
			Kind:    "x",
			Reads:   float64(reads),
			Updates: float64(writes),
			Cost:    float64(cost),
			SLO:     clock.Duration(slo),
			Mech:    from,
			Pure:    pure,
			Dwell:   1 << 20,
		}
		if from == core.PeriodicMechanism {
			o.Window = clock.Duration(window) + 1
		}
		c := New(nil, Config{
			Hysteresis: float64(hyst) / 100,
			MinDwell:   -1,
			MinWindow:  10,
			MaxWindow:  1000,
		})
		ms := c.Plan([]Observation{o})
		if len(ms) > 1 {
			t.Fatalf("one observation planned %d migrations", len(ms))
		}
		if len(ms) == 0 {
			return
		}
		m := ms[0]
		switch m.To {
		case core.OnDemandMechanism, core.TriggeredMechanism:
			if m.Window != 0 {
				t.Fatalf("non-periodic target with window %d", m.Window)
			}
			if m.To == from {
				t.Fatalf("planned identity migration %v", m)
			}
		case core.PeriodicMechanism:
			if o.SLO <= 0 {
				t.Fatalf("periodic planned without a freshness SLO")
			}
			if m.Window < 10 || m.Window > 1000 {
				t.Fatalf("periodic window %d outside [10, 1000]", m.Window)
			}
			if from == core.PeriodicMechanism && m.Window == o.Window {
				t.Fatalf("planned identity migration %v", m)
			}
		default:
			t.Fatalf("illegal target mechanism %v", m.To)
		}
		if m.Gain <= 0 {
			t.Fatalf("planned migration with non-positive gain %v", m.Gain)
		}
		// No flapping: the configuration the plan just chose must
		// justify itself under the same workload.
		o.Mech = m.To
		o.Window = m.Window
		if again := c.Plan([]Observation{o}); len(again) != 0 {
			t.Fatalf("flap: %v immediately re-planned as %v", m, again)
		}
	})
}

// TestPlanMatchesCostmodel cross-checks the planner against direct
// costmodel evaluation on a grid of workloads: whenever Plan migrates,
// the target must be costmodel.Choose's pick, and whenever it stays
// put, staying must be within hysteresis of the optimum.
func TestPlanMatchesCostmodel(t *testing.T) {
	c := New(nil, Config{Hysteresis: 0.2, MinDwell: -1, MinWindow: 10, MaxWindow: 1000})
	for _, reads := range []float64{0, 0.5, 2, 50} {
		for _, writes := range []float64{0, 0.5, 2, 50} {
			for _, slo := range []clock.Duration{0, 100} {
				for _, from := range []core.Mechanism{core.OnDemandMechanism, core.TriggeredMechanism} {
					o := Observation{
						Kind: "x", Reads: reads, Updates: writes, Cost: 10,
						SLO: slo, Mech: from, Dwell: 100,
					}
					w := costmodel.Workload{Reads: reads, Writes: writes, Cost: 10, SLO: slo}
					best := costmodel.Choose(w, 10, 1000)
					cur := w.Rate(from, 0)
					ms := c.Plan([]Observation{o})
					if len(ms) == 1 {
						if ms[0].To != best.Mech || ms[0].Window != best.Window {
							t.Fatalf("R=%v W=%v slo=%d from=%v: planned %v, costmodel says %+v",
								reads, writes, slo, from, ms[0], best)
						}
					} else if best.CostRate*1.2 < cur {
						t.Fatalf("R=%v W=%v slo=%d from=%v: no plan despite %v << %v",
							reads, writes, slo, from, best.CostRate, cur)
					}
				}
			}
		}
	}
}
