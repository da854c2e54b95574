package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/clock"
)

// defineCell defines kind as a triggered item publishing *v, refreshed
// by the event ev — a mutable publishing source for delta tests.
func defineCell(r *Registry, kind Kind, ev string, v *float64) {
	r.MustDefine(&Definition{
		Kind:   kind,
		Events: []string{ev},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) { return *v, nil }), nil
		},
	})
}

// defineDeltaAgg defines kind as a delta aggregate over deps.
func defineDeltaAgg(r *Registry, kind Kind, spec *DeltaSpec, deps ...DepRef) {
	r.MustDefine(&Definition{
		Kind:  kind,
		Deps:  deps,
		Delta: spec,
		Build: NewDeltaAggregate,
	})
}

// deltaCells builds n cells on r plus a delta aggregate over all of
// them, subscribes to the aggregate, and returns the cell values and
// the subscription.
func deltaCells(t *testing.T, r *Registry, spec *DeltaSpec, n int) ([]float64, *Subscription) {
	t.Helper()
	vals := make([]float64, n)
	deps := make([]DepRef, n)
	for i := range vals {
		vals[i] = float64(i + 1)
		kind := Kind("cell" + string(rune('A'+i)))
		defineCell(r, kind, "ev"+string(rune('A'+i)), &vals[i])
		deps[i] = Dep(Self(), kind)
	}
	defineDeltaAgg(r, "agg", spec, deps...)
	sub, err := r.Subscribe("agg")
	if err != nil {
		t.Fatal(err)
	}
	return vals, sub
}

func aggFloat(t *testing.T, sub *Subscription) float64 {
	t.Helper()
	f, err := sub.Float()
	if err != nil {
		t.Fatalf("aggregate read: %v", err)
	}
	return f
}

func TestDeltaSumFiresOnCellUpdates(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	vals, sub := deltaCells(t, r, DeltaSum(), 4)
	defer sub.Unsubscribe()

	if got := aggFloat(t, sub); got != 1+2+3+4 {
		t.Fatalf("initial sum = %v, want 10", got)
	}
	st := env.Stats()
	base := st.Snapshot()

	vals[2] = 30
	r.FireEvent("evC")
	if got := aggFloat(t, sub); got != 1+2+30+4 {
		t.Fatalf("sum after update = %v, want 37", got)
	}
	vals[0] = -5
	r.FireEvent("evA")
	if got := aggFloat(t, sub); got != -5+2+30+4 {
		t.Fatalf("sum after update = %v, want 31", got)
	}
	d := st.Snapshot().Sub(base)
	if d.DeltaFires != 2 || d.DeltaFallbacks != 0 {
		t.Fatalf("fires=%d fallbacks=%d, want 2 fires 0 fallbacks (d=%+v)", d.DeltaFires, d.DeltaFallbacks, d)
	}
	if hr := d.DeltaHitRate(); hr != 1 {
		t.Fatalf("DeltaHitRate = %v, want 1", hr)
	}
}

func TestDeltaOffEnvNeverFires(t *testing.T) {
	vc := clock.NewVirtual()
	env := NewEnv(vc, WithoutDeltaPropagation())
	r := env.NewRegistry("n1")
	vals, sub := deltaCells(t, r, DeltaSum(), 3)
	defer sub.Unsubscribe()
	vals[1] = 20
	r.FireEvent("evB")
	if got := aggFloat(t, sub); got != 1+20+3 {
		t.Fatalf("sum = %v, want 24", got)
	}
	st := env.Stats().Snapshot()
	if st.DeltaFires != 0 {
		t.Fatalf("DeltaFires = %d on delta-off env, want 0", st.DeltaFires)
	}
	if st.DeltaFallbacks == 0 {
		t.Fatalf("DeltaFallbacks = 0 on delta-off env, want > 0")
	}
}

// TestDeltaMatchesDeltaOff drives the same update sequence through a
// delta-on and a delta-off graph and requires bit-identical values —
// the exact-fallback contract at unit-test scale (the modelcheck
// lockstep covers generated workloads).
func TestDeltaMatchesDeltaOff(t *testing.T) {
	specs := map[string]func() *DeltaSpec{
		"sum": DeltaSum, "count": DeltaCount, "mean": DeltaMean, "var": DeltaVar, "min": DeltaMin,
	}
	for name, mk := range specs {
		t.Run(name, func(t *testing.T) {
			envOn, _ := testEnv()
			vcOff := clock.NewVirtual()
			envOff := NewEnv(vcOff, WithoutDeltaPropagation())
			rOn := envOn.NewRegistry("n1")
			rOff := envOff.NewRegistry("n1")
			valsOn, subOn := deltaCells(t, rOn, mk(), 5)
			valsOff, subOff := deltaCells(t, rOff, mk(), 5)
			defer subOn.Unsubscribe()
			defer subOff.Unsubscribe()

			updates := []struct {
				i  int
				v  float64
				ev string
			}{
				{2, 7, "evC"}, {0, -3, "evA"}, {2, 2.5, "evC"}, {4, 100, "evE"},
				{1, 0.125, "evB"}, {3, -41, "evD"}, {0, 9, "evA"},
			}
			for _, u := range updates {
				valsOn[u.i], valsOff[u.i] = u.v, u.v
				rOn.FireEvent(u.ev)
				rOff.FireEvent(u.ev)
				fOn, errOn := subOn.Float()
				fOff, errOff := subOff.Float()
				if (errOn == nil) != (errOff == nil) {
					t.Fatalf("error divergence: on=%v off=%v", errOn, errOff)
				}
				if math.Float64bits(fOn) != math.Float64bits(fOff) {
					t.Fatalf("value divergence after %+v: on=%v off=%v", u, fOn, fOff)
				}
			}
			if envOn.Stats().Snapshot().DeltaFires == 0 && mk().Retract != nil {
				t.Fatalf("invertible spec %q never used the delta path", name)
			}
		})
	}
}

func TestDeltaMinFallsBackOnPairs(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	vals, sub := deltaCells(t, r, DeltaMin(), 3)
	defer sub.Unsubscribe()
	base := env.Stats().Snapshot()

	vals[0] = 50 // retract the minimum: not invertible
	r.FireEvent("evA")
	if got := aggFloat(t, sub); got != 2 {
		t.Fatalf("min = %v, want 2", got)
	}
	d := env.Stats().Snapshot().Sub(base)
	if d.DeltaFires != 0 || d.DeltaFallbacks != 1 {
		t.Fatalf("fires=%d fallbacks=%d, want 0/1 for non-invertible pairs", d.DeltaFires, d.DeltaFallbacks)
	}
}

func TestDeltaRetractRefusalFallsBack(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	spec := DeltaSum()
	refuse := false
	inner := spec.Retract
	spec.Retract = func(a DeltaAcc, v float64) (DeltaAcc, bool) {
		if refuse {
			return a, false
		}
		return inner(a, v)
	}
	vals, sub := deltaCells(t, r, spec, 3)
	defer sub.Unsubscribe()

	refuse = true
	base := env.Stats().Snapshot()
	vals[1] = 17
	r.FireEvent("evB")
	if got := aggFloat(t, sub); got != 1+17+3 {
		t.Fatalf("sum = %v, want 21", got)
	}
	d := env.Stats().Snapshot().Sub(base)
	if d.DeltaFires != 0 || d.DeltaFallbacks != 1 {
		t.Fatalf("fires=%d fallbacks=%d, want refusal to fold", d.DeltaFires, d.DeltaFallbacks)
	}
	// The fold re-validated the accumulator; with retraction allowed
	// again the next update fires.
	refuse = false
	vals[1] = 18
	r.FireEvent("evB")
	if got := aggFloat(t, sub); got != 1+18+3 {
		t.Fatalf("sum = %v, want 22", got)
	}
	d = env.Stats().Snapshot().Sub(base)
	if d.DeltaFires != 1 {
		t.Fatalf("fires=%d, want 1 after recovery", d.DeltaFires)
	}
}

func TestDeltaStructuralChangeForcesFallback(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	vals, sub := deltaCells(t, r, DeltaSum(), 3)
	defer sub.Unsubscribe()
	defineConst(r, "unrelated", 1.0)

	// Warm the delta path.
	vals[0] = 4
	r.FireEvent("evA")
	base := env.Stats().Snapshot()

	// Any structural change advances the write epoch and invalidates
	// the accumulator (conservative, like memo stamps).
	other, err := r.Subscribe("unrelated")
	if err != nil {
		t.Fatal(err)
	}
	vals[1] = 9
	r.FireEvent("evB")
	if got := aggFloat(t, sub); got != 4+9+3 {
		t.Fatalf("sum = %v, want 16", got)
	}
	d := env.Stats().Snapshot().Sub(base)
	if d.DeltaFallbacks != 1 || d.DeltaFires != 0 {
		t.Fatalf("fires=%d fallbacks=%d after structural change, want 0/1", d.DeltaFires, d.DeltaFallbacks)
	}
	// The fold re-stamped the epoch; steady state fires again.
	vals[1] = 10
	r.FireEvent("evB")
	d = env.Stats().Snapshot().Sub(base)
	if d.DeltaFires != 1 {
		t.Fatalf("fires=%d, want 1 after re-stamp", d.DeltaFires)
	}
	other.Unsubscribe()
}

func TestDeltaNotifyChangedPoisons(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	cell := 3.0
	r.MustDefine(&Definition{
		Kind: "cell",
		Build: func(*BuildContext) (Handler, error) {
			return NewStatic(&cell), nil // non-float static: never pair-trackable
		},
	})
	defineDeltaAgg(r, "agg", &DeltaSpec{
		Combine: func(a DeltaAcc, v float64) DeltaAcc { a[0] += v; return a },
		Retract: func(a DeltaAcc, v float64) (DeltaAcc, bool) { a[0] -= v; return a, true },
	}, Dep(Self(), "cell"))
	// A *float64 static is not numeric: the aggregate's fold errors.
	sub, err := r.Subscribe("agg")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if _, err := sub.Float(); !errors.Is(err, errNotNumeric) {
		t.Fatalf("err = %v, want errNotNumeric for pointer-valued dep", err)
	}
}

func TestDeltaNotifyChangedOnFloatStatic(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	// A float static edited behind the framework's back: NotifyChanged
	// announces the edit.
	cell := NewStatic(5.0)
	r.MustDefine(&Definition{
		Kind:  "cell",
		Build: func(*BuildContext) (Handler, error) { return cell, nil },
	})
	defineDeltaAgg(r, "agg", DeltaSum(), Dep(Self(), "cell"))
	sub, err := r.Subscribe("agg")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if got := aggFloat(t, sub); got != 5 {
		t.Fatalf("sum = %v, want 5", got)
	}
	setStatic(cell, 8.0)
	r.NotifyChanged("cell")
	if got := aggFloat(t, sub); got != 8 {
		t.Fatalf("sum after NotifyChanged = %v, want 8", got)
	}
}

// setStatic swaps the value a static item serves without publishing
// it: the NotifyChanged escape-hatch scenario, a value that changes
// outside the framework.
func setStatic(h Handler, v Value) {
	it := h.(*item)
	it.mu.Lock()
	it.cur.Store(it.snaps.slot().set(v, nil))
	it.mu.Unlock()
}

func TestDeltaRebaseInterval(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	spec := DeltaSum()
	spec.RebaseEvery = 2
	vals, sub := deltaCells(t, r, spec, 3)
	defer sub.Unsubscribe()
	base := env.Stats().Snapshot()

	for i := 0; i < 6; i++ {
		vals[0] = float64(10 + i)
		r.FireEvent("evA")
		if got, want := aggFloat(t, sub), float64(10+i)+2+3; got != want {
			t.Fatalf("sum = %v, want %v", got, want)
		}
	}
	d := env.Stats().Snapshot().Sub(base)
	// applied runs 0,1 then rebases: fire, fire, rebase, repeated.
	if d.DeltaRebases != 2 || d.DeltaFires != 4 || d.DeltaFallbacks != 0 {
		t.Fatalf("fires=%d rebases=%d fallbacks=%d, want 4/2/0", d.DeltaFires, d.DeltaRebases, d.DeltaFallbacks)
	}
}

func TestDeltaOnDemandDepIneligible(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	n := 0.0
	r.MustDefine(&Definition{
		Kind: "vol",
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) { n++; return n, nil }), nil
		},
	})
	v := 1.0
	defineCell(r, "cell", "ev", &v)
	defineDeltaAgg(r, "agg", DeltaSum(), Dep(Self(), "vol"), Dep(Self(), "cell"))
	sub, err := r.Subscribe("agg")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	base := env.Stats().Snapshot()
	v = 2
	r.FireEvent("ev")
	// The on-demand edge has no delta form: every refresh folds, and
	// the fold reads the volatile dependency live (recompute-per-access
	// semantics preserved).
	if got := aggFloat(t, sub); got != 2+2 { // n=2 on the fold's read
		t.Fatalf("sum = %v, want 4", got)
	}
	d := env.Stats().Snapshot().Sub(base)
	if d.DeltaFires != 0 || d.DeltaFallbacks != 1 {
		t.Fatalf("fires=%d fallbacks=%d with on-demand dep, want 0/1", d.DeltaFires, d.DeltaFallbacks)
	}
}

func TestDeltaAggregateAsDependency(t *testing.T) {
	// Aggregates publish like any triggered handler, so a second-level
	// aggregate can consume them through the delta channel.
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	vals, sub := deltaCells(t, r, DeltaSum(), 3)
	defer sub.Unsubscribe()
	defineDeltaAgg(r, "agg2", DeltaMean(), Dep(Self(), "agg"), Dep(Self(), "cellA"))
	sub2, err := r.Subscribe("agg2")
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Unsubscribe()

	vals[0] = 7
	r.FireEvent("evA")
	if got := aggFloat(t, sub); got != 7+2+3 {
		t.Fatalf("agg = %v, want 12", got)
	}
	f, err := sub2.Float()
	if err != nil || f != (12+7)/2.0 {
		t.Fatalf("agg2 = %v, %v; want 9.5", f, err)
	}
}

func TestDeltaUnsubscribeDeregisters(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	vals, sub := deltaCells(t, r, DeltaSum(), 2)
	sub.Unsubscribe()
	// Cells are gone with the aggregate (refcounts), so re-include one
	// and verify no delta bookkeeping leaked.
	defineConst(r, "probe", 1.0)
	ps, err := r.Subscribe("probe")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Unsubscribe()
	_ = vals
	sc := env.lockScope(r)
	for _, sl := range r.slots {
		if e := sl.entry; e != nil && e.deltaDeps != 0 {
			sc.unlock()
			t.Fatalf("entry %s has deltaDeps=%d after unsubscribe", sl.shape.kind, e.deltaDeps)
		}
	}
	sc.unlock()
}

func TestPutFloatBoxing(t *testing.T) {
	var a snapAlloc
	s1 := a.putFloat(3.5)
	s2 := a.putFloat(-0.0)
	s3 := a.slot().set("str", nil)
	if f, ok := s1.val.(float64); !ok || f != 3.5 {
		t.Fatalf("s1.val = %#v, want float64 3.5", s1.val)
	}
	if f, ok := s2.val.(float64); !ok || math.Float64bits(f) != math.Float64bits(-0.0) {
		t.Fatalf("s2.val = %#v, want -0.0", s2.val)
	}
	if s, ok := s3.val.(string); !ok || s != "str" {
		t.Fatalf("s3.val = %#v, want \"str\"", s3.val)
	}
	if f, _ := Float(s1.val); f != 3.5 {
		t.Fatalf("Float(s1.val) = %v, want 3.5", f)
	}
	// Snapshots are independent: later puts must not disturb earlier
	// boxes even across chunk growth.
	for i := 0; i < 200; i++ {
		a.putFloat(float64(i))
	}
	if f := s1.val.(float64); f != 3.5 {
		t.Fatalf("s1 disturbed: %v", f)
	}
}

func TestDeltaStatsSnapshotAndSub(t *testing.T) {
	var st Stats
	st.DeltaFires.Add(6)
	st.DeltaFallbacks.Add(3)
	st.DeltaRebases.Add(1)
	snap := st.Snapshot()
	if snap.DeltaFires != 6 || snap.DeltaFallbacks != 3 || snap.DeltaRebases != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if hr := snap.DeltaHitRate(); hr != 0.6 {
		t.Fatalf("DeltaHitRate = %v, want 0.6", hr)
	}
	st.DeltaFires.Add(2)
	d := st.Snapshot().Sub(snap)
	if d.DeltaFires != 2 || d.DeltaFallbacks != 0 || d.DeltaRebases != 0 {
		t.Fatalf("delta window = %+v", d)
	}
	if (Snapshot{}).DeltaHitRate() != 0 {
		t.Fatalf("empty DeltaHitRate != 0")
	}
}
