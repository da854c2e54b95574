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
// checkpointed — included under the restore-pending predicate, waiting
// for their value — the rest subscribed "in the WAL tail", computing
// from whatever their dependencies hold.
type restoreWorld struct {
	env   *Env
	vc    *clock.Virtual
	r     *Registry
	kinds []Kind
	sinks []*recordingSink
	batch []RestoredItem // the checkpointed items, in kind order
	// want is the value every item must serve once the batch stands: a
	// restored item its checkpointed value, any other item what its
	// compute makes of the values its dependencies serve then.
	want map[Kind]float64
}

// buildRestoreWorld is a pure function of seed, so two worlds of one
// seed differ only in how they are restored afterwards.
func buildRestoreWorld(t *testing.T, seed int64) *restoreWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vc := clock.NewVirtual()
	w := &restoreWorld{env: NewEnv(vc, WithBreaker(DefaultBreakerPolicy)), vc: vc}
	w.r = w.env.NewRegistry("r")
	w.want = map[Kind]float64{}
	n := 6 + rng.Intn(10)
	restored := map[Kind]bool{}
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
			// last-good value, a placeholder is an error.
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
			restored[kind] = true
			w.want[kind] = float64(1000 * (i + 1))
			it := RestoredItem{Kind: kind, Value: w.want[kind], Version: uint64(100 + rng.Intn(900))}
			if rng.Intn(4) == 0 {
				it.Cause = fmt.Errorf("pre-crash trouble %d", i)
			}
			w.batch = append(w.batch, it)
		}
	}
	w.env.SetRestorePending(func(_ *Registry, kind Kind) bool { return restored[kind] })
	for _, kind := range w.kinds {
		if _, err := w.r.Subscribe(kind); err != nil {
			t.Fatal(err)
		}
		sink := &recordingSink{}
		if _, err := w.r.Watch(kind, sink); err != nil {
			t.Fatal(err)
		}
		w.sinks = append(w.sinks, sink)
	}
	w.env.SetRestorePending(nil)
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

// TestRestoreStaleBatchEquivalence: restoring a registry's checkpointed
// items as one batch reaches the state that restoring them one by one
// reaches, in whatever order — values, errors, health, delta-state
// invalidation and the version of every restored item; unrestored
// dependents hold the value computed from the restored ones; a watcher
// resuming with since = the persisted version sees exactly one event.
func TestRestoreStaleBatchEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		one, all := buildRestoreWorld(t, seed), buildRestoreWorld(t, seed)
		at := fmt.Sprintf("seed %d (%d items, %d restored)", seed, len(one.kinds), len(one.batch))

		order := rand.New(rand.NewSource(seed)).Perm(len(one.batch))
		for _, i := range order {
			it := []RestoredItem{one.batch[i]}
			if one.r.RestoreStaleBatch(it); it[0].Err != nil {
				t.Fatalf("%s: RestoreStaleBatch(%s): %v", at, it[0].Kind, it[0].Err)
			}
		}
		if n := all.r.RestoreStaleBatch(all.batch); n != len(all.batch) {
			t.Fatalf("%s: batch restored %d of %d", at, n, len(all.batch))
		}

		// After the warm-up an accumulator's validity is not compared: a
		// probe leaves it invalid until the next locked refresh, so it
		// follows the order the probes were armed in, which is the order
		// the items were restored in.
		check := func(phase string, deltaState bool) {
			t.Helper()
			a, b := one.view(t, deltaState), all.view(t, deltaState)
			if !reflect.DeepEqual(a, b) {
				for _, kind := range one.kinds {
					if !reflect.DeepEqual(a[kind], b[kind]) {
						t.Errorf("%s %s: %s one by one %+v, batch %+v", at, phase, kind, a[kind], b[kind])
					}
				}
				t.FailNow()
			}
		}
		check("restored", true)
		for kind, iv := range all.view(t, true) {
			if iv.Value != all.want[kind] {
				t.Fatalf("%s: %s serves %v (%s), want %v", at, kind, iv.Value, iv.Err, all.want[kind])
			}
		}
		for _, it := range all.batch {
			for name, w := range map[string]*restoreWorld{"one by one": one, "batch": all} {
				iv := w.view(t, true)[it.Kind]
				if iv.Value != it.Value || iv.Health != Quarantined || iv.DeltaValid {
					t.Fatalf("%s %s: %s = %+v, want %v quarantined", at, name, it.Kind, iv, it.Value)
				}
				if ver, _ := w.r.ItemVersion(it.Kind); ver != it.Version+1 {
					t.Fatalf("%s %s: %s version %d, want persisted %d + 1", at, name, it.Kind, ver, it.Version)
				}
				var resumed []uint64
				for k, kind := range w.kinds {
					if kind != it.Kind {
						continue
					}
					for _, v := range w.sinks[k].versions() {
						if v > it.Version {
							resumed = append(resumed, v)
						}
					}
				}
				if len(resumed) != 1 || resumed[0] != it.Version+1 {
					t.Fatalf("%s %s: a watcher of %s since %d saw %v, want one event", at, name, it.Kind, it.Version, resumed)
				}
			}
		}
		if a, b := one.env.Stats().RestoredStale.Load(), all.env.Stats().RestoredStale.Load(); a != b || int(b) != len(all.batch) {
			t.Fatalf("%s: RestoredStale %d one by one, %d batch", at, a, b)
		}

		// Warm both through the probes: everything heals to the same
		// live values.
		for _, w := range []*restoreWorld{one, all} {
			for i := 0; i < 4; i++ {
				w.vc.Advance(clock.Duration(DefaultBreakerPolicy.MaxProbeBackoff))
				w.env.Quiesce()
			}
		}
		check("warm", false)
		for kind, iv := range all.view(t, false) {
			if iv.Err != "" || iv.Health != Healthy {
				t.Fatalf("%s: %s after warm-up: %+v", at, kind, iv)
			}
		}
		for _, w := range []*restoreWorld{one, all} {
			if errs := VerifyIntegrity(nil, w.r); len(errs) > 0 {
				t.Fatalf("%s: integrity: %v", at, errs)
			}
		}
	}
}

// TestRestoreStaleBatchVerdicts: items the batch cannot restore get
// their reason and do not stop the others.
func TestRestoreStaleBatchVerdicts(t *testing.T) {
	vc := clock.NewVirtual()
	env := NewEnv(vc, WithBreaker(DefaultBreakerPolicy))
	r := env.NewRegistry("r")
	defineConst(r, "fixed", 1.0)
	defineDerived(r, "sum", Dep(Self(), "fixed"))
	defineDerived(r, "idle")
	if _, err := r.Subscribe("sum"); err != nil {
		t.Fatal(err)
	}
	batch := []RestoredItem{
		{Kind: "idle", Value: 1.0, Version: 5},
		{Kind: "fixed", Value: 2.0, Version: 5},
		{Kind: "sum", Value: 3.0, Version: 5, Err: errors.New("left over")},
		{Kind: "nowhere", Value: 4.0},
	}
	if n := r.RestoreStaleBatch(batch); n != 1 {
		t.Fatalf("restored %d items, want 1", n)
	}
	for i, want := range []error{ErrUnsubscribed, ErrNotRestorable, nil, ErrUnsubscribed} {
		if got := batch[i].Err; !errors.Is(got, want) || (want == nil) != (got == nil) {
			t.Errorf("%s: verdict %v, want %v", batch[i].Kind, got, want)
		}
	}
	if v, err := r.Peek("sum"); v != 3.0 || !errors.Is(err, ErrRestored) {
		t.Fatalf("sum = %v, %v; want 3 under ErrRestored", v, err)
	}
	if r.RestoreStaleBatch(nil) != 0 {
		t.Fatal("empty batch restored something")
	}
}
