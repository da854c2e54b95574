package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

// defineAdaptive defines kind as a migratable sum-of-deps-plus-offset
// item whose three maintenance forms compute the identical value, so
// tests can migrate it freely and assert exact values throughout.
func defineAdaptive(r *Registry, kind Kind, start Mechanism, window clock.Duration, offset float64, deps ...DepRef) {
	mk := func(ctx *BuildContext) func() (Value, error) {
		var handles []*Handle
		for i := 0; i < ctx.NumDeps(); i++ {
			handles = append(handles, ctx.DepGroup(i)...)
		}
		return func() (Value, error) {
			sum := offset
			for _, h := range handles {
				f, err := h.Float()
				if err != nil {
					return nil, err
				}
				sum += f
			}
			return sum, nil
		}
	}
	od := func(ctx *BuildContext) ComputeFunc {
		f := mk(ctx)
		return func(clock.Time) (Value, error) { return f() }
	}
	per := func(ctx *BuildContext) WindowComputeFunc {
		f := mk(ctx)
		return func(clock.Time, clock.Time) (Value, error) { return f() }
	}
	r.MustDefine(&Definition{
		Kind: kind,
		Deps: deps,
		Pure: true,
		Adapt: &AdaptSpec{
			OnDemand:  od,
			Triggered: od,
			Periodic:  per,
			Window:    window,
			Pure:      true,
		},
		Build: func(ctx *BuildContext) (Handler, error) {
			switch start {
			case PeriodicMechanism:
				return NewPeriodic(window, per(ctx)), nil
			case TriggeredMechanism:
				return NewTriggered(od(ctx)), nil
			default:
				return NewOnDemand(od(ctx)), nil
			}
		},
	})
}

// TestMigrateTransitionMatrix walks all six transitions between the
// three dynamic mechanisms on a live subscription, checking after each
// that the mechanism switched, the value is preserved exactly, the
// subscription still works, and the structural invariants hold — once
// from a healthy start, and once from a quarantined one, where every
// mechanism must keep serving the same stale value (no recompute, no
// boundary cadence) until the probe recovers the item through whichever
// mechanism the walk ended on.
func TestMigrateTransitionMatrix(t *testing.T) {
	for _, quarantined := range []bool{false, true} {
		name := "healthy"
		if quarantined {
			name = "quarantined"
		}
		t.Run(name, func(t *testing.T) {
			vc := clock.NewVirtual()
			env := NewEnv(vc, WithBreaker(BreakerPolicy{
				FailureThreshold: 3, FailureWindow: 1000,
				ProbeBackoff: 500, MaxProbeBackoff: 4000,
			}))
			r := env.NewRegistry("n")
			defineConst(r, "base", 7.0)
			defineAdaptive(r, "x", OnDemandMechanism, 10, 0, Dep(Self(), "base"))

			want := 7.0
			if quarantined {
				// Park x in quarantine on a value no form computes: a
				// recovery restores it as it is included.
				want = 5
				env.SetRestoreLookup(func(_ *Registry, kind Kind) *RestoredItem {
					if kind != "x" {
						return nil
					}
					return &RestoredItem{Value: want}
				})
			}
			s, err := r.Subscribe("x")
			env.SetRestoreLookup(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Unsubscribe()

			steps := []Mechanism{
				TriggeredMechanism, PeriodicMechanism, OnDemandMechanism, // od->trig, trig->per, per->od
				PeriodicMechanism, TriggeredMechanism, OnDemandMechanism, // od->per, per->trig, trig->od
			}
			computes := env.Stats().ComputeCalls.Load()
			for i, to := range steps {
				if err := r.Migrate("x", to, 0); err != nil {
					t.Fatalf("step %d: Migrate to %v: %v", i, to, err)
				}
				if m, _ := r.Mechanism("x"); m != to {
					t.Fatalf("step %d: mechanism = %v, want %v", i, m, to)
				}
				vc.Advance(20) // two boundaries of the periodic form
				if v, err := s.Float(); v != want || errors.Is(err, ErrStale) != quarantined {
					t.Fatalf("step %d: value = %v, %v, want %v (stale: %v)", i, v, err, want, quarantined)
				}
				if hs, _ := r.Health("x"); (hs.State == Quarantined) != quarantined {
					t.Fatalf("step %d: health %v (quarantined start: %v)", i, hs.State, quarantined)
				}
				ext := map[ItemKey]int{{Registry: "n", Kind: "x"}: 1}
				if errs := VerifyIntegrity(ext, r); len(errs) != 0 {
					t.Fatalf("step %d: integrity: %v", i, errs)
				}
			}
			if got := env.Stats().Migrations.Load(); got != int64(len(steps)) {
				t.Fatalf("Migrations = %d, want %d", got, len(steps))
			}
			if c, rm := env.Stats().HandlersCreated.Load(), env.Stats().HandlersRemoved.Load(); c-rm != 2 {
				t.Fatalf("created %d - removed %d != 2 live handlers", c, rm)
			}
			if !quarantined {
				return
			}
			if got := env.Stats().ComputeCalls.Load(); got != computes {
				t.Fatalf("quarantined walk computed %d times", got-computes)
			}
			vc.Advance(500)
			if hs, _ := r.Health("x"); hs.State != Healthy {
				t.Fatalf("after probe: health %v, want Healthy", hs.State)
			}
			if v, err := s.Float(); err != nil || v != 7 {
				t.Fatalf("recovered value = %v, %v, want 7", v, err)
			}
		})
	}
}

// heldUpdater is an asynchronous updater that runs nothing until told.
type heldUpdater struct {
	mu   sync.Mutex
	held []func()
}

func (u *heldUpdater) Submit(fn func()) {
	u.mu.Lock()
	u.held = append(u.held, fn)
	u.mu.Unlock()
}
func (u *heldUpdater) WaitIdle() {}
func (u *heldUpdater) Stop()     {}

// release runs everything submitted so far.
func (u *heldUpdater) release() {
	u.mu.Lock()
	held := u.held
	u.held = nil
	u.mu.Unlock()
	for _, fn := range held {
		fn()
	}
}

// TestMigrateRacingFiredProbe: a migration that lands between a
// probe's fire and its run on the updater must not cost the item a
// backoff. The probe belongs to the item, not to a mechanism: it runs
// under whichever policy is installed when the updater gets to it.
func TestMigrateRacingFiredProbe(t *testing.T) {
	vc := clock.NewVirtual()
	u := new(heldUpdater)
	env := NewEnv(vc, WithUpdater(u), WithBreaker(BreakerPolicy{
		FailureThreshold: 2, FailureWindow: 1000,
		ProbeBackoff: 50, MaxProbeBackoff: 400,
	}))
	r := env.NewRegistry("n")
	var failing atomic.Bool
	form := func(v float64) func(*BuildContext) ComputeFunc {
		return func(*BuildContext) ComputeFunc {
			return func(clock.Time) (Value, error) {
				if failing.Load() {
					panic("flap")
				}
				return v, nil
			}
		}
	}
	r.MustDefine(&Definition{
		Kind:   "f",
		Events: []string{"ev"},
		Adapt:  &AdaptSpec{OnDemand: form(7), Triggered: form(42)},
		Build: func(ctx *BuildContext) (Handler, error) {
			return NewTriggered(form(42)(ctx)), nil
		},
	})
	s, err := r.Subscribe("f")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()

	failing.Store(true)
	r.FireEvent("ev")
	r.FireEvent("ev")
	if hs, _ := r.Health("f"); hs.State != Quarantined {
		t.Fatalf("state = %v after 2 panics, want Quarantined", hs.State)
	}
	failing.Store(false)

	// The probe fires and is handed to the updater, which sits on it
	// while the migration goes through.
	vc.Advance(50)
	if hs, _ := r.Health("f"); hs.State != Probing {
		t.Fatalf("state = %v at the probe instant, want Probing", hs.State)
	}
	if err := r.Migrate("f", OnDemandMechanism, 0); err != nil {
		t.Fatal(err)
	}
	u.release()

	if hs, _ := r.Health("f"); hs.State != Healthy {
		t.Fatalf("state = %v after the held probe ran, want Healthy", hs.State)
	}
	if got := env.Stats().BreakerRecoveries.Load(); got != 1 {
		t.Fatalf("BreakerRecoveries = %d, want 1 at this probe", got)
	}
	if v, err := s.Float(); err != nil || v != 7 {
		t.Fatalf("recovered value = %v, %v, want 7 (on-demand form)", v, err)
	}
}

// TestMigrateWindowResize checks periodic -> periodic migrations: a new
// window counts as a migration and re-times the boundary cadence, while
// an identical window is a no-op that counts nothing.
func TestMigrateWindowResize(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n")
	defineConst(r, "base", 1.0)
	defineAdaptive(r, "x", PeriodicMechanism, 10, 0, Dep(Self(), "base"))
	s, _ := r.Subscribe("x")
	defer s.Unsubscribe()

	if w, ok := r.Window("x"); !ok || w != 10 {
		t.Fatalf("Window = %v, %v, want 10, true", w, ok)
	}
	if err := r.Migrate("x", PeriodicMechanism, 40); err != nil {
		t.Fatal(err)
	}
	if w, _ := r.Window("x"); w != 40 {
		t.Fatalf("Window = %v, want 40 after resize", w)
	}
	// Identity: same mechanism, same window.
	if err := r.Migrate("x", PeriodicMechanism, 40); err != nil {
		t.Fatal(err)
	}
	if got := env.Stats().Migrations.Load(); got != 1 {
		t.Fatalf("Migrations = %d, want 1 (identity no-op excluded)", got)
	}
	// The resized cadence is live: boundaries land at 40-unit marks.
	before := env.Stats().PeriodicUpdates.Load()
	vc.Advance(120)
	if got := env.Stats().PeriodicUpdates.Load() - before; got != 3 {
		t.Fatalf("PeriodicUpdates = %d over 120 units, want 3 at window 40", got)
	}
}

// TestMigrateErrors pins the error classes of Migrate.
func TestMigrateErrors(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	defineConst(r, "plain", 1.0)
	defineAdaptive(r, "x", OnDemandMechanism, 10, 0)
	// An adaptable definition whose spec lacks the periodic form.
	r.MustDefine(&Definition{
		Kind: "notrig",
		Adapt: &AdaptSpec{
			OnDemand: func(*BuildContext) ComputeFunc {
				return func(clock.Time) (Value, error) { return 1.0, nil }
			},
		},
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) { return 1.0, nil }), nil
		},
	})
	// A static item with a (meaningless) AdaptSpec.
	r.MustDefine(&Definition{
		Kind: "stat",
		Adapt: &AdaptSpec{
			OnDemand: func(*BuildContext) ComputeFunc {
				return func(clock.Time) (Value, error) { return 1.0, nil }
			},
		},
		Build: func(*BuildContext) (Handler, error) { return NewStatic(1.0), nil },
	})
	// A delta aggregate over x.
	r.MustDefine(&Definition{
		Kind:  "agg",
		Deps:  []DepRef{Dep(Self(), "plain")},
		Delta: DeltaSum(),
		Adapt: &AdaptSpec{
			OnDemand: func(*BuildContext) ComputeFunc {
				return func(clock.Time) (Value, error) { return 1.0, nil }
			},
		},
		Build: NewDeltaAggregate,
	})

	if err := r.Migrate("x", TriggeredMechanism, 0); !errors.Is(err, ErrUnsubscribed) {
		t.Fatalf("not included: err = %v, want ErrUnsubscribed", err)
	}
	subs := make([]*Subscription, 0, 4)
	for _, k := range []Kind{"x", "plain", "notrig", "stat", "agg"} {
		s, err := r.Subscribe(k)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	defer func() {
		for _, s := range subs {
			s.Unsubscribe()
		}
	}()

	cases := []struct {
		name string
		kind Kind
		to   Mechanism
	}{
		{"no AdaptSpec", "plain", OnDemandMechanism},
		{"missing target form", "notrig", TriggeredMechanism},
		{"missing periodic form", "notrig", PeriodicMechanism},
		{"static source", "stat", OnDemandMechanism},
		{"delta aggregate", "agg", OnDemandMechanism},
		{"static target", "x", StaticMechanism},
	}
	for _, tc := range cases {
		if err := r.Migrate(tc.kind, tc.to, 0); !errors.Is(err, ErrNotMigratable) {
			t.Errorf("%s: err = %v, want ErrNotMigratable", tc.name, err)
		}
	}
	// Periodic target with no window anywhere.
	if err := r.Migrate("notrig", PeriodicMechanism, 0); !errors.Is(err, ErrNotMigratable) {
		t.Errorf("periodic without window: err = %v, want ErrNotMigratable", err)
	}
	if got := env.Stats().Migrations.Load(); got != 0 {
		t.Fatalf("Migrations = %d after failed calls, want 0", got)
	}
}

// TestMigrateTransplantsQuarantine checks that a quarantined item
// migrates quarantined — same stale last-good value, same breaker — and
// that its armed recovery probe lands on the new mechanism.
func TestMigrateTransplantsQuarantine(t *testing.T) {
	vc := clock.NewVirtual()
	env := NewEnv(vc, WithBreaker(BreakerPolicy{
		FailureThreshold: 3, FailureWindow: 1000,
		ProbeBackoff: 50, MaxProbeBackoff: 400,
	}))
	r := env.NewRegistry("n")
	var failing atomic.Bool
	r.MustDefine(&Definition{
		Kind: "f",
		Adapt: &AdaptSpec{
			Triggered: func(*BuildContext) ComputeFunc {
				return func(clock.Time) (Value, error) { return 7.0, nil }
			},
		},
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) {
				if failing.Load() {
					panic("flap")
				}
				return 42.0, nil
			}), nil
		},
	})
	s, err := r.Subscribe("f")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()

	if v, _ := s.Float(); v != 42 {
		t.Fatalf("healthy value = %v, want 42", v)
	}
	failing.Store(true)
	for i := 0; i < 3; i++ {
		vc.Advance(1)
		s.Value()
	}
	if hs, _ := r.Health("f"); hs.State != Quarantined {
		t.Fatalf("state = %v after 3 panics, want Quarantined", hs.State)
	}
	if v, err := s.Float(); !errors.Is(err, ErrStale) || v != 42 {
		t.Fatalf("quarantined read = %v, %v, want 42 + ErrStale", v, err)
	}

	if err := r.Migrate("f", TriggeredMechanism, 0); err != nil {
		t.Fatal(err)
	}
	// Quarantine carried over: still serving the same stale value under
	// the new mechanism, no recompute happened.
	if m, _ := r.Mechanism("f"); m != TriggeredMechanism {
		t.Fatalf("mechanism = %v, want triggered", m)
	}
	if hs, _ := r.Health("f"); hs.State != Quarantined {
		t.Fatalf("state = %v after migration, want Quarantined", hs.State)
	}
	if v, err := s.Float(); !errors.Is(err, ErrStale) || v != 42 {
		t.Fatalf("post-migration read = %v, %v, want 42 + ErrStale", v, err)
	}

	// The probe armed before the migration fires into the NEW handler
	// and recovers it with the triggered form's value.
	vc.Advance(50)
	if hs, _ := r.Health("f"); hs.State != Healthy {
		t.Fatalf("state = %v after probe, want Healthy", hs.State)
	}
	if v, err := s.Float(); err != nil || v != 7 {
		t.Fatalf("recovered value = %v, %v, want 7 (triggered form)", v, err)
	}
	if got := env.Stats().BreakerRecoveries.Load(); got != 1 {
		t.Fatalf("BreakerRecoveries = %d, want 1", got)
	}
}

// TestMigrateReanchorsDeltaAggregates checks the delta channel across a
// dependency's migration: an on-demand dependency forces the aggregate
// onto the exact fold path, and migrating back re-anchors the pair
// stream so the O(1) path resumes — exact values throughout.
func TestMigrateReanchorsDeltaAggregates(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n")
	// x and y both track the clock; the aggregate sums them. x is
	// adaptable: its on-demand form reads the clock at access time, so
	// the sum stays exact in every configuration.
	clockCompute := func(ctx *BuildContext) ComputeFunc {
		c := ctx.reg.env.Clock()
		return func(clock.Time) (Value, error) { return float64(c.Now()), nil }
	}
	r.MustDefine(&Definition{
		Kind: "x",
		Adapt: &AdaptSpec{
			OnDemand: clockCompute,
			Periodic: func(ctx *BuildContext) WindowComputeFunc {
				return func(_, end clock.Time) (Value, error) { return float64(end), nil }
			},
			Window: 10,
		},
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(_, end clock.Time) (Value, error) {
				return float64(end), nil
			}), nil
		},
	})
	r.MustDefine(&Definition{
		Kind: "y",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(_, end clock.Time) (Value, error) {
				return float64(end), nil
			}), nil
		},
	})
	r.MustDefine(&Definition{
		Kind:  "agg",
		Deps:  []DepRef{Dep(Self(), "x"), Dep(Self(), "y")},
		Delta: DeltaSum(),
		Build: NewDeltaAggregate,
	})
	s, err := r.Subscribe("agg")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()

	vc.Advance(10)
	if v, _ := s.Float(); v != 20 {
		t.Fatalf("agg = %v at t=10, want 20", v)
	}
	fires0 := env.Stats().DeltaFires.Load()
	if fires0 == 0 {
		t.Fatalf("delta path not exercised before migration")
	}

	// x -> on-demand: the aggregate must fall back to exact folds.
	if err := r.Migrate("x", OnDemandMechanism, 0); err != nil {
		t.Fatal(err)
	}
	fallbacks0 := env.Stats().DeltaFallbacks.Load()
	vc.Advance(10) // y publishes 20; x reads 20 live
	if v, _ := s.Float(); v != 40 {
		t.Fatalf("agg = %v at t=20 with on-demand x, want 40", v)
	}
	if got := env.Stats().DeltaFallbacks.Load(); got <= fallbacks0 {
		t.Fatalf("DeltaFallbacks = %d, want > %d (aggregate ineligible)", got, fallbacks0)
	}

	// x back to periodic: the pair stream re-anchors at the republished
	// value and the O(1) path resumes.
	if err := r.Migrate("x", PeriodicMechanism, 10); err != nil {
		t.Fatal(err)
	}
	fires1 := env.Stats().DeltaFires.Load()
	vc.Advance(10) // both publish 30
	if v, _ := s.Float(); v != 60 {
		t.Fatalf("agg = %v at t=30 after re-migration, want 60", v)
	}
	if got := env.Stats().DeltaFires.Load(); got <= fires1 {
		t.Fatalf("DeltaFires = %d, want > %d (delta path resumed)", got, fires1)
	}
}

// TestMigrateReengagesDependentMemos checks memo engagement of a pure
// on-demand dependent across its dependency's migrations: a volatile
// on-demand dependency blocks memoization, a periodic one enables it,
// and migrating back disengages it again.
func TestMigrateReengagesDependentMemos(t *testing.T) {
	vc := clock.NewVirtual()
	env := NewEnv(vc, WithMemoizedOnDemand())
	r := env.NewRegistry("n")
	dv := 7.0
	r.MustDefine(&Definition{
		Kind: "d",
		Adapt: &AdaptSpec{
			OnDemand: func(*BuildContext) ComputeFunc {
				return func(clock.Time) (Value, error) { return dv, nil }
			},
			Periodic: func(*BuildContext) WindowComputeFunc {
				return func(_, _ clock.Time) (Value, error) { return dv, nil }
			},
			Window: 10,
			// Not Pure: the on-demand form stays volatile.
		},
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) { return dv, nil }), nil
		},
	})
	var computes atomic.Int64
	r.MustDefine(&Definition{
		Kind: "p",
		Deps: []DepRef{Dep(Self(), "d")},
		Pure: true,
		Build: func(ctx *BuildContext) (Handler, error) {
			h := ctx.Dep(0)
			return NewOnDemand(func(clock.Time) (Value, error) {
				computes.Add(1)
				f, err := h.Float()
				if err != nil {
					return nil, err
				}
				return f + 1, nil
			}), nil
		},
	})
	s, err := r.Subscribe("p")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()

	// Volatile dependency: every read recomputes.
	for i := 0; i < 2; i++ {
		if v, _ := s.Float(); v != 8 {
			t.Fatalf("p = %v, want 8", v)
		}
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("computes = %d with volatile dependency, want 2", got)
	}

	// Periodic dependency: the dependent's memo engages; repeat reads
	// are hits.
	if err := r.Migrate("d", PeriodicMechanism, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v, _ := s.Float(); v != 8 {
			t.Fatalf("p = %v after migration, want 8", v)
		}
	}
	if got := computes.Load(); got != 3 {
		t.Fatalf("computes = %d with periodic dependency, want 3 (one miss, then hits)", got)
	}
	if env.Stats().MemoHits.Load() == 0 {
		t.Fatalf("no memo hits after dependency became stampable")
	}

	// Back to volatile: disengaged again, every read recomputes.
	if err := r.Migrate("d", OnDemandMechanism, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if v, _ := s.Float(); v != 8 {
			t.Fatalf("p = %v after back-migration, want 8", v)
		}
	}
	if got := computes.Load(); got != 5 {
		t.Fatalf("computes = %d with volatile dependency again, want 5", got)
	}
}

// TestMigrateStormProperty is the migrate-storm property test: random
// migrations across all transitions run concurrently with lock-free
// readers, clock advancement (periodic boundaries, breaker probes),
// quarantine flapping, and subscription churn. Run with -race.
//
// Invariants checked throughout: the adaptable item's value is exactly
// 42 in every mechanism, the delta aggregate over it is exactly 44, and
// the flapping item serves its exact last-good value whenever it
// serves a value at all. At quiescence: migration count, refcounts,
// structural integrity, and unlocked scopes.
func TestMigrateStormProperty(t *testing.T) {
	vc := clock.NewVirtual()
	env := NewEnv(vc, WithBreaker(BreakerPolicy{
		FailureThreshold: 3, FailureWindow: 200,
		ProbeBackoff: 10, MaxProbeBackoff: 80,
	}))
	r := env.NewRegistry("n")
	defineConst(r, "base", 2.0)
	defineAdaptive(r, "x", OnDemandMechanism, 10, 40, Dep(Self(), "base"))
	var flap atomic.Bool
	flapCompute := func(*BuildContext) ComputeFunc {
		return func(clock.Time) (Value, error) {
			if flap.Load() {
				panic("flap")
			}
			return 1.0, nil
		}
	}
	r.MustDefine(&Definition{
		Kind: "flappy",
		Adapt: &AdaptSpec{
			OnDemand:  flapCompute,
			Triggered: flapCompute,
			Periodic: func(*BuildContext) WindowComputeFunc {
				return func(_, _ clock.Time) (Value, error) {
					if flap.Load() {
						panic("flap")
					}
					return 1.0, nil
				}
			},
			Window: 7,
		},
		Build: func(ctx *BuildContext) (Handler, error) {
			return NewOnDemand(flapCompute(ctx)), nil
		},
	})
	r.MustDefine(&Definition{
		Kind:  "agg",
		Deps:  []DepRef{Dep(Self(), "x"), Dep(Self(), "base")},
		Delta: DeltaSum(),
		Build: NewDeltaAggregate,
	})

	sx, _ := r.Subscribe("x")
	sa, _ := r.Subscribe("agg")
	sf, _ := r.Subscribe("flappy")

	const iters = 400
	stop := make(chan struct{})
	var wg, readers sync.WaitGroup

	// Readers: exact-value invariants on the lock-free read path. They
	// run until the mutating goroutines (tracked by wg) are done.
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, err := sx.Float(); err != nil || v != 42 {
					t.Errorf("x = %v, %v, want exactly 42", v, err)
					return
				}
				if v, err := sa.Float(); err != nil || v != 44 {
					t.Errorf("agg = %v, %v, want exactly 44", v, err)
					return
				}
				if v, err := sf.Value(); err == nil && v != 1.0 {
					t.Errorf("flappy = %v without error, want 1", v)
					return
				}
			}
		}()
	}

	var migrated int64 // expected Migrations count, maintained by the migrator alone
	wg.Add(4)
	// Migrator: random transitions over both adaptable items; the
	// expected migration count is deterministic because only this
	// goroutine migrates.
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		cur := map[Kind]Mechanism{"x": OnDemandMechanism, "flappy": OnDemandMechanism}
		win := map[Kind]clock.Duration{"x": 0, "flappy": 0}
		mechs := []Mechanism{OnDemandMechanism, PeriodicMechanism, TriggeredMechanism}
		for i := 0; i < iters; i++ {
			kind := Kind("x")
			if rng.Intn(2) == 0 {
				kind = "flappy"
			}
			to := mechs[rng.Intn(3)]
			var w clock.Duration
			if to == PeriodicMechanism {
				w = clock.Duration(5 + rng.Intn(16))
			}
			if err := r.Migrate(kind, to, w); err != nil {
				t.Errorf("Migrate(%s, %v, %d): %v", kind, to, w, err)
				return
			}
			if cur[kind] != to || (to == PeriodicMechanism && win[kind] != w) {
				migrated++
			}
			cur[kind] = to
			if to == PeriodicMechanism {
				win[kind] = w
			} else {
				win[kind] = 0
			}
		}
	}()
	// Advancer: drives periodic boundaries and breaker probes.
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			vc.Advance(1)
		}
	}()
	// Flapper: quarantine churn on the flapping item.
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			flap.Store(true)
			for j := 0; j < 5; j++ {
				sf.Value()
			}
			flap.Store(false)
			for j := 0; j < 5; j++ {
				sf.Value()
			}
		}
	}()
	// Churn: structural operations racing the migrations.
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s, err := r.Subscribe("agg")
			if err != nil {
				t.Errorf("churn subscribe: %v", err)
				return
			}
			s.Unsubscribe()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	env.Quiesce()

	if v, err := sx.Float(); err != nil || v != 42 {
		t.Fatalf("final x = %v, %v, want 42", v, err)
	}
	if v, err := sa.Float(); err != nil || v != 44 {
		t.Fatalf("final agg = %v, %v, want 44", v, err)
	}
	if got := env.Stats().Migrations.Load(); got != migrated {
		t.Fatalf("Migrations = %d, want %d", got, migrated)
	}
	ext := map[ItemKey]int{
		{Registry: "n", Kind: "x"}:      1,
		{Registry: "n", Kind: "agg"}:    1,
		{Registry: "n", Kind: "flappy"}: 1,
	}
	if errs := VerifyIntegrity(ext, r); len(errs) != 0 {
		t.Fatalf("integrity: %v", errs)
	}
	if err := ScopesUnlocked(r); err != nil {
		t.Fatal(err)
	}
	live := int64(len(r.Included()))
	if c, rm := env.Stats().HandlersCreated.Load(), env.Stats().HandlersRemoved.Load(); c-rm != live {
		t.Fatalf("created %d - removed %d != %d live handlers", c, rm, live)
	}
	sf.Unsubscribe()
	sa.Unsubscribe()
	sx.Unsubscribe()
	if got := len(r.Included()); got != 0 {
		t.Fatalf("%d items left included", got)
	}
}
