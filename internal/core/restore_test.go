package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/clock"
)

// restoreWorld is one recovering registry: n items over a random DAG
// (item i reads a subset of the items before it), some of them
// checkpointed — answered by the recovery's lookup, so they start
// serving their checkpointed value — the rest subscribed "in the WAL
// tail", computing from whatever their dependencies serve.
type restoreWorld struct {
	env   *Env
	vc    *clock.Virtual
	r     *Registry
	kinds []Kind
	ckpt  map[Kind]*RestoredItem // the checkpointed items
	// want is the value every item must serve once it is included: a
	// restored item its checkpointed value, any other item what its
	// compute makes of the values its dependencies serve then.
	want map[Kind]float64
}

// buildRestoreWorld is a pure function of seed, with the items
// subscribed in kind order or, when shuffle is set, in a random order
// that includes many of them through their dependents.
func buildRestoreWorld(t *testing.T, seed int64, shuffle bool) *restoreWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vc := clock.NewVirtual()
	w := &restoreWorld{env: NewEnv(vc, WithBreaker(DefaultBreakerPolicy)), vc: vc}
	w.r = w.env.NewRegistry("r")
	w.want, w.ckpt = map[Kind]float64{}, map[Kind]*RestoredItem{}
	n := 6 + rng.Intn(10)
	for i := 0; i < n; i++ {
		kind := Kind(fmt.Sprintf("k%02d", i))
		w.kinds = append(w.kinds, kind)
		var deps []DepRef
		live, fanIn := float64(i+1), 0.0
		for j := 0; j < i; j++ {
			if rng.Intn(3) == 0 {
				deps = append(deps, Dep(Self(), w.kinds[j]))
				fanIn += w.want[w.kinds[j]]
			}
		}
		def := &Definition{Kind: kind, Deps: deps}
		w.want[kind] = live + fanIn
		switch {
		case len(deps) > 1 && rng.Intn(3) == 0:
			def.Delta, def.Build = DeltaSum(), NewDeltaAggregate
			w.want[kind] = fanIn
		case len(deps) == 0 && rng.Intn(4) == 0:
			def.Build = func(*BuildContext) (Handler, error) {
				return NewPeriodic(100, func(_, _ clock.Time) (Value, error) { return live, nil }), nil
			}
		default:
			// Degrade-aware: a stale dependency still counts with its
			// last-good value.
			def.Build = func(ctx *BuildContext) (Handler, error) {
				var hs []*Handle
				for g := 0; g < ctx.NumDeps(); g++ {
					hs = append(hs, ctx.DepGroup(g)...)
				}
				return NewTriggered(func(clock.Time) (Value, error) {
					sum := live
					for _, h := range hs {
						f, err := h.Float()
						if err != nil && !errors.Is(err, ErrStale) {
							return nil, err
						}
						sum += f
					}
					return sum, nil
				}), nil
			}
		}
		w.r.MustDefine(def)
		// A delta aggregate is always checkpointed: its fold takes a stale
		// dependency for an error, which would leave the oracle below
		// with nothing to say about it.
		if rng.Intn(3) != 0 || def.Delta != nil {
			w.want[kind] = float64(1000 * (i + 1))
			it := &RestoredItem{Value: w.want[kind], Version: uint64(100 + rng.Intn(900))}
			if rng.Intn(4) == 0 {
				it.Cause = fmt.Errorf("pre-crash trouble %d", i)
			}
			w.ckpt[kind] = it
		}
	}
	order := rng.Perm(n)
	w.env.SetRestoreLookup(func(_ *Registry, kind Kind) *RestoredItem { return w.ckpt[kind] })
	for i := range w.kinds {
		if shuffle {
			i = order[i]
		}
		if _, err := w.r.Subscribe(w.kinds[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.env.SetRestoreLookup(nil)
	return w
}

// itemView is everything about an item the two restore orders must
// agree on.
type itemView struct {
	Value      Value
	Err        string
	Health     HealthState
	Cause      string
	Since      clock.Time
	DeltaValid bool
}

func (w *restoreWorld) view(t *testing.T, deltaState bool) map[Kind]itemView {
	t.Helper()
	out := map[Kind]itemView{}
	for _, kind := range w.kinds {
		v, err := w.r.Peek(kind)
		hs, _ := w.r.Health(kind)
		iv := itemView{Value: v, Health: hs.State, Since: hs.Since}
		if err != nil {
			iv.Err = err.Error()
		}
		if hs.Cause != nil {
			iv.Cause = hs.Cause.Error()
		}
		if ds := w.r.entryOf(kind).delta(); ds != nil && deltaState {
			iv.DeltaValid = ds.valid
		}
		out[kind] = iv
	}
	return out
}

// TestRestoreAtInclusion: a checkpointed item starts serving its
// checkpointed value, quarantined, with its delta accumulator invalid,
// at its persisted version + 1 — its first and only publication — and
// every other item computes once, from the values its dependencies
// serve then. Nothing propagates, and the state is the same whatever
// order the items are subscribed in. Warm-up heals everything.
func TestRestoreAtInclusion(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		inOrder, shuffled := buildRestoreWorld(t, seed, false), buildRestoreWorld(t, seed, true)
		at := fmt.Sprintf("seed %d (%d items, %d restored)", seed, len(inOrder.kinds), len(inOrder.ckpt))

		// After the warm-up an accumulator's validity is not compared: a
		// probe leaves it invalid until the next locked refresh, so it
		// follows the order the probes were armed in, which is the order
		// the items were included in.
		check := func(phase string, deltaState bool) {
			t.Helper()
			a, b := inOrder.view(t, deltaState), shuffled.view(t, deltaState)
			if !reflect.DeepEqual(a, b) {
				for _, kind := range inOrder.kinds {
					if !reflect.DeepEqual(a[kind], b[kind]) {
						t.Errorf("%s %s: %s in order %+v, shuffled %+v", at, phase, kind, a[kind], b[kind])
					}
				}
				t.FailNow()
			}
		}
		check("restored", true)
		for _, w := range []*restoreWorld{inOrder, shuffled} {
			for kind, it := range w.ckpt {
				iv := w.view(t, true)[kind]
				if iv.Value != it.Value || iv.Health != Quarantined || iv.DeltaValid {
					t.Fatalf("%s: %s = %+v, want %v quarantined", at, kind, iv, it.Value)
				}
				if ver, _ := w.r.ItemVersion(kind); ver != it.Version+1 {
					t.Fatalf("%s: %s version %d, want persisted %d + 1", at, kind, ver, it.Version)
				}
			}
			for kind, iv := range w.view(t, true) {
				if iv.Value != w.want[kind] {
					t.Fatalf("%s: %s serves %v (%s), want %v", at, kind, iv.Value, iv.Err, w.want[kind])
				}
				if ver, _ := w.r.ItemVersion(kind); w.ckpt[kind] == nil && ver != 1 {
					t.Fatalf("%s: %s published %d times, want its initial compute alone", at, kind, ver)
				}
			}
			if st := w.env.Stats(); st.PlanCacheMisses.Load()+st.PlanCacheHits.Load() != 0 {
				t.Fatalf("%s: including the items propagated", at)
			}
		}

		// Warm both through the probes: everything heals to the same
		// live values.
		for _, w := range []*restoreWorld{inOrder, shuffled} {
			for i := 0; i < 4; i++ {
				w.vc.Advance(clock.Duration(DefaultBreakerPolicy.MaxProbeBackoff))
				w.env.Quiesce()
			}
		}
		check("warm", false)
		for kind, iv := range shuffled.view(t, false) {
			if iv.Err != "" || iv.Health != Healthy {
				t.Fatalf("%s: %s after warm-up: %+v", at, kind, iv)
			}
		}
		for _, w := range []*restoreWorld{inOrder, shuffled} {
			if errs := VerifyIntegrity(nil, w.r); len(errs) > 0 {
				t.Fatalf("%s: integrity: %v", at, errs)
			}
		}
	}
}

// TestRestoreLookupScope: the lookup restores the non-static items it
// answers, and only while it is installed; a static item keeps its
// given value.
func TestRestoreLookupScope(t *testing.T) {
	env := NewEnv(clock.NewVirtual(), WithBreaker(DefaultBreakerPolicy))
	r := env.NewRegistry("r")
	defineConst(r, "fixed", 1.0)
	defineDerived(r, "sum", Dep(Self(), "fixed"))
	ckpt := map[Kind]*RestoredItem{
		"fixed": {Value: 2.0, Version: 5},
		"sum":   {Value: 3.0, Version: 5},
	}
	env.SetRestoreLookup(func(_ *Registry, kind Kind) *RestoredItem { return ckpt[kind] })
	s, err := r.Subscribe("sum")
	env.SetRestoreLookup(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Peek("fixed"); v != 1.0 || err != nil {
		t.Fatalf("fixed = %v, %v; want its given 1", v, err)
	}
	if v, err := r.Peek("sum"); v != 3.0 || !errors.Is(err, ErrRestored) {
		t.Fatalf("sum = %v, %v; want 3 under ErrRestored", v, err)
	}
	s.Unsubscribe()
	if _, err := r.Subscribe("sum"); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Peek("sum"); v != 1.0 || err != nil {
		t.Fatalf("sum included after the recovery = %v, %v; want 1 computed", v, err)
	}
}
