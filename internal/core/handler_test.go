package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

func TestOnDemandComputesEveryAccess(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n1")
	calls := 0
	r.MustDefine(&Definition{Kind: "x", Build: func(*BuildContext) (Handler, error) {
		return NewOnDemand(func(now clock.Time) (Value, error) {
			calls++
			return float64(now), nil
		}), nil
	}})
	s, _ := r.Subscribe("x")
	defer s.Unsubscribe()
	vc.Advance(5)
	if v, _ := s.Float(); v != 5 {
		t.Fatalf("value = %v, want 5 (exact at access time)", v)
	}
	vc.Advance(5)
	if v, _ := s.Float(); v != 10 {
		t.Fatalf("value = %v, want 10", v)
	}
	if calls != 2 {
		t.Fatalf("compute calls = %d, want 2", calls)
	}
	if got := env.Stats().OnDemandComputes.Load(); got != 2 {
		t.Fatalf("OnDemandComputes = %d, want 2", got)
	}
}

func TestOnDemandErrorPropagates(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	boom := errors.New("boom")
	r.MustDefine(&Definition{Kind: "x", Build: func(*BuildContext) (Handler, error) {
		return NewOnDemand(func(clock.Time) (Value, error) { return nil, boom }), nil
	}})
	s, _ := r.Subscribe("x")
	defer s.Unsubscribe()
	if _, err := s.Value(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestPeriodicWindowSemantics checks the mechanism of Section 3.2.2: a
// counter probe gathers during each window; at the window boundary the
// rate for the elapsed window is published and served until the next
// boundary.
func TestPeriodicWindowSemantics(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n1")
	var count Counter
	r.MustDefine(&Definition{
		Kind:  "inputRate",
		Probe: &count,
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(50, func(start, end clock.Time) (Value, error) {
				w := end.Sub(start)
				if w == 0 {
					return 0.0, nil
				}
				return float64(count.Take()) / float64(w), nil
			}), nil
		},
	})
	s, _ := r.Subscribe("inputRate")
	defer s.Unsubscribe()

	// Initial value (zero-width window) is 0.
	if v, _ := s.Float(); v != 0 {
		t.Fatalf("initial value = %v, want 0", v)
	}

	// One element every 10 units: true rate 0.1 (Figure 4).
	for i := 1; i <= 10; i++ {
		vc.Advance(10)
		count.Inc()
	}
	// The clock passed boundaries at 50 and 100; elements are counted
	// after the advance that crosses the boundary, so window [0,50)
	// saw 4 increments and [50,100) saw 5; we only assert the steady
	// published value below using exact phase control.
	if v, _ := s.Float(); v <= 0 || v > 0.2 {
		t.Fatalf("published rate = %v, want ~0.1", v)
	}
}

// TestPeriodicExactRate drives arrivals as clock events so counting
// happens exactly at arrival times; every published window then holds
// exactly 5 elements and the rate is exactly 0.1.
func TestPeriodicExactRate(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n1")
	var count Counter
	r.MustDefine(&Definition{
		Kind:  "inputRate",
		Probe: &count,
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(50, func(start, end clock.Time) (Value, error) {
				w := end.Sub(start)
				if w == 0 {
					return 0.0, nil
				}
				return float64(count.Take()) / float64(w), nil
			}), nil
		},
	})
	s, _ := r.Subscribe("inputRate")
	defer s.Unsubscribe()

	// Arrivals at 5, 15, 25, ... — 5 per 50-unit window, rate 0.1.
	for i := 0; i < 40; i++ {
		vc.Schedule(clock.Time(5+10*i), func(clock.Time) { count.Inc() })
	}
	vc.Advance(100)
	if v, _ := s.Float(); v != 0.1 {
		t.Fatalf("rate after two windows = %v, want exactly 0.1", v)
	}
	// Isolation condition: many consumers read concurrently-ish; all
	// see the same published value, and reading does not disturb the
	// measurement.
	s2, _ := r.Subscribe("inputRate")
	defer s2.Unsubscribe()
	for i := 0; i < 10; i++ {
		v1, _ := s.Float()
		v2, _ := s2.Float()
		if v1 != 0.1 || v2 != 0.1 {
			t.Fatalf("concurrent reads diverged: %v %v", v1, v2)
		}
	}
	vc.Advance(300)
	if v, _ := s.Float(); v != 0.1 {
		t.Fatalf("rate after more windows = %v, want 0.1 (reads must not reset the counter)", v)
	}
	if got := env.Stats().PeriodicUpdates.Load(); got != 8 {
		t.Fatalf("PeriodicUpdates = %d, want 8 (one per 50-unit window over 400 units)", got)
	}
}

func TestPeriodicStopsOnUnsubscribe(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n1")
	r.MustDefine(&Definition{Kind: "p", Build: func(*BuildContext) (Handler, error) {
		return NewPeriodic(10, func(a, b clock.Time) (Value, error) { return 1.0, nil }), nil
	}})
	s, _ := r.Subscribe("p")
	vc.Advance(35)
	if got := env.Stats().PeriodicUpdates.Load(); got != 3 {
		t.Fatalf("PeriodicUpdates = %d, want 3", got)
	}
	s.Unsubscribe()
	vc.Advance(100)
	if got := env.Stats().PeriodicUpdates.Load(); got != 3 {
		t.Fatalf("periodic handler kept updating after removal: %d updates", got)
	}
	if got := vc.PendingEvents(); got != 0 {
		t.Fatalf("%d clock events leaked after unsubscribe", got)
	}
}

func TestPeriodicZeroWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPeriodic(0) did not panic")
		}
	}()
	NewPeriodic(0, func(a, b clock.Time) (Value, error) { return nil, nil })
}

func TestTriggeredPrecomputedOnSubscription(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	calls := 0
	defineConst(r, "base", 7.0)
	r.MustDefine(&Definition{
		Kind: "t",
		Deps: []DepRef{Dep(Self(), "base")},
		Build: func(ctx *BuildContext) (Handler, error) {
			dep := ctx.Dep(0)
			return NewTriggered(func(clock.Time) (Value, error) {
				calls++
				return dep.Float()
			}), nil
		},
	})
	s, _ := r.Subscribe("t")
	defer s.Unsubscribe()
	if calls != 1 {
		t.Fatalf("compute calls = %d, want 1 (pre-computed at subscription)", calls)
	}
	// Reads serve the cached value without recomputation.
	for i := 0; i < 5; i++ {
		if v, _ := s.Float(); v != 7 {
			t.Fatalf("value = %v, want 7", v)
		}
	}
	if calls != 1 {
		t.Fatalf("reads recomputed a triggered handler (%d calls)", calls)
	}
}

// TestTriggeredRefreshOnPeriodicDependency reproduces the dependency of
// Section 3.2.3: refreshing the measured input rate triggers the update
// of the measured average input rate.
func TestTriggeredRefreshOnPeriodicDependency(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n1")
	var count Counter
	r.MustDefine(&Definition{
		Kind:  "inputRate",
		Probe: &count,
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
				w := end.Sub(start)
				if w == 0 {
					return 0.0, nil
				}
				return float64(count.Take()) / float64(w), nil
			}), nil
		},
	})
	r.MustDefine(&Definition{
		Kind: "avgInputRate",
		Deps: []DepRef{Dep(Self(), "inputRate")},
		Build: func(ctx *BuildContext) (Handler, error) {
			dep := ctx.Dep(0)
			n, sum := 0.0, 0.0
			return NewTriggered(func(clock.Time) (Value, error) {
				v, err := dep.Float()
				if err != nil {
					return nil, err
				}
				n++
				sum += v
				return sum / n, nil
			}), nil
		},
	})
	s, _ := r.Subscribe("avgInputRate")
	defer s.Unsubscribe()

	// Windows: [0,10) 2 arrivals -> 0.2; [10,20) 1 -> 0.1; [20,30) 0 -> 0.
	for _, at := range []clock.Time{2, 6, 15} {
		vc.Schedule(at, func(clock.Time) { count.Inc() })
	}
	vc.Advance(30)
	// avg over initial precompute (0) + three published windows:
	// (0 + 0.2 + 0.1 + 0) / 4.
	want := (0.0 + 0.2 + 0.1 + 0.0) / 4
	if v, _ := s.Float(); math.Abs(v-want) > 1e-12 {
		t.Fatalf("avg = %v, want %v (every periodic update must trigger exactly one refresh)", v, want)
	}
	if got := env.Stats().TriggeredUpdates.Load(); got != 3 {
		t.Fatalf("TriggeredUpdates = %d, want 3", got)
	}
}

func TestTriggeredChainPropagatesRecursively(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n1")
	r.MustDefine(&Definition{Kind: "p", Build: func(*BuildContext) (Handler, error) {
		return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
			return float64(end), nil
		}), nil
	}})
	defineDerived(r, "t1", Dep(Self(), "p"))
	defineDerived(r, "t2", Dep(Self(), "t1"))
	defineDerived(r, "t3", Dep(Self(), "t2"))
	s, _ := r.Subscribe("t3")
	defer s.Unsubscribe()
	vc.Advance(10)
	if v, _ := s.Float(); v != 10 {
		t.Fatalf("t3 = %v, want 10 (update must propagate through the whole chain)", v)
	}
	vc.Advance(10)
	if v, _ := s.Float(); v != 20 {
		t.Fatalf("t3 = %v, want 20", v)
	}
}

// TestDiamondPropagationOrder checks the update-order requirement of
// Section 3.3: in a diamond p -> (a, b) -> c, c must refresh exactly
// once per propagation wave and only after both a and b refreshed.
func TestDiamondPropagationOrder(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n1")
	r.MustDefine(&Definition{Kind: "p", Build: func(*BuildContext) (Handler, error) {
		return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
			return float64(end), nil
		}), nil
	}})
	defineDerived(r, "a", Dep(Self(), "p"))
	defineDerived(r, "b", Dep(Self(), "p"))
	var refreshes []string
	r.MustDefine(&Definition{
		Kind: "c",
		Deps: []DepRef{Dep(Self(), "a"), Dep(Self(), "b")},
		Build: func(ctx *BuildContext) (Handler, error) {
			da, db := ctx.Dep(0), ctx.Dep(1)
			return NewTriggered(func(clock.Time) (Value, error) {
				refreshes = append(refreshes, "c")
				va, _ := da.Float()
				vb, _ := db.Float()
				return va + vb, nil
			}), nil
		},
	})
	s, _ := r.Subscribe("c")
	defer s.Unsubscribe()
	refreshes = nil
	vc.Advance(10)
	if len(refreshes) != 1 {
		t.Fatalf("c refreshed %d times in one wave, want 1 (topological order)", len(refreshes))
	}
	if v, _ := s.Float(); v != 20 {
		t.Fatalf("c = %v, want 20 (both branches must be fresh when c computes)", v)
	}

	// A ladder of diamonds — every layer holds two items, each depending
	// on both items of the layer below — updated once at its base: every
	// affected item refreshes exactly once (the base, both sides of each
	// inner layer, the one subscribed top item: 2L), however many paths
	// reach it, and the top ends on base·2^L.
	for _, L := range []int{2, 6, 10} {
		env, _ := testEnv()
		r := env.NewRegistry("n1")
		base := 1.0
		r.MustDefine(&Definition{
			Kind:   "base",
			Events: []string{"changed"},
			Build: func(*BuildContext) (Handler, error) {
				return NewTriggered(func(clock.Time) (Value, error) { return base, nil }), nil
			},
		})
		prevA, prevB := Kind("base"), Kind("base")
		for l := 1; l <= L; l++ {
			a, b := Kind(fmt.Sprintf("l%da", l)), Kind(fmt.Sprintf("l%db", l))
			defineDerived(r, a, Dep(Self(), prevA), Dep(Self(), prevB))
			defineDerived(r, b, Dep(Self(), prevA), Dep(Self(), prevB))
			prevA, prevB = a, b
		}
		top, err := r.Subscribe(prevA)
		if err != nil {
			t.Fatal(err)
		}
		before := env.Stats().TriggeredUpdates.Load()
		base = 2
		r.FireEvent("changed")
		if got := env.Stats().TriggeredUpdates.Load() - before; got != int64(2*L) {
			t.Fatalf("%d-layer ladder: %d refreshes for one base update, want %d", L, got, 2*L)
		}
		if v, err := top.Float(); err != nil || v != math.Ldexp(base, L) {
			t.Fatalf("%d-layer ladder: top = %v, %v; want %v", L, v, err, math.Ldexp(base, L))
		}
		top.Unsubscribe()
	}
}

func TestFireEventRefreshesRegisteredHandlers(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	size := 100.0
	r.MustDefine(&Definition{
		Kind:   "windowSize",
		Events: []string{"windowSizeChanged"},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) { return size, nil }), nil
		},
	})
	defineDerived(r, "estValidity", Dep(Self(), "windowSize"))
	s, _ := r.Subscribe("estValidity")
	defer s.Unsubscribe()
	if v, _ := s.Float(); v != 100 {
		t.Fatalf("initial estValidity = %v, want 100", v)
	}
	size = 50
	r.FireEvent("windowSizeChanged")
	if v, _ := s.Float(); v != 50 {
		t.Fatalf("estValidity after event = %v, want 50", v)
	}
	if got := env.Stats().EventsFired.Load(); got != 1 {
		t.Fatalf("EventsFired = %d, want 1", got)
	}
}

func TestFireEventWithoutSubscribersIsNoop(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	r.FireEvent("nothing")
	if got := env.Stats().TriggeredUpdates.Load(); got != 0 {
		t.Fatalf("TriggeredUpdates = %d, want 0", got)
	}
}

func TestEventRegistrationRemovedOnUnsubscribe(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	calls := 0
	r.MustDefine(&Definition{
		Kind:   "x",
		Events: []string{"e"},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) {
				calls++
				return 1.0, nil
			}), nil
		},
	})
	s, _ := r.Subscribe("x")
	r.FireEvent("e")
	if calls != 2 { // precompute + event
		t.Fatalf("calls = %d, want 2", calls)
	}
	s.Unsubscribe()
	r.FireEvent("e")
	if calls != 2 {
		t.Fatalf("event refreshed a removed handler (calls = %d)", calls)
	}
}

// TestNotifyChanged covers the manual notification for on-demand
// dependencies (Section 3.2.3): a triggered handler depending on an
// on-demand item stays correct if the node fires a notification when
// the underlying state changes.
func TestNotifyChanged(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	state := 1.0
	r.MustDefine(&Definition{Kind: "memUsage", Build: func(*BuildContext) (Handler, error) {
		return NewOnDemand(func(clock.Time) (Value, error) { return state, nil }), nil
	}})
	defineDerived(r, "estCost", Dep(Self(), "memUsage"))
	s, _ := r.Subscribe("estCost")
	defer s.Unsubscribe()
	if v, _ := s.Float(); v != 1 {
		t.Fatalf("estCost = %v, want 1", v)
	}
	state = 5
	// Without notification the triggered handler still serves the old
	// pre-computed value.
	if v, _ := s.Float(); v != 1 {
		t.Fatalf("estCost = %v, want stale 1 before notification", v)
	}
	r.NotifyChanged("memUsage")
	if v, _ := s.Float(); v != 5 {
		t.Fatalf("estCost = %v, want 5 after NotifyChanged", v)
	}
}

func TestNotifyChangedOnAbsentItemIsNoop(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "x", 1.0)
	r.NotifyChanged("x") // not included: must not panic
}

func TestStaticHandlerLifecycle(t *testing.T) {
	h := NewStatic("schema")
	if v, err := h.Value(); err != nil || v != "schema" {
		t.Fatalf("Value = %v, %v", v, err)
	}
	if h.Mechanism() != StaticMechanism {
		t.Fatal("wrong mechanism")
	}
}

func TestValueAfterHandlerRemoval(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	r.MustDefine(&Definition{Kind: "od", Build: func(*BuildContext) (Handler, error) {
		return NewOnDemand(func(clock.Time) (Value, error) { return 1.0, nil }), nil
	}})
	r.MustDefine(&Definition{Kind: "p", Build: func(*BuildContext) (Handler, error) {
		return NewPeriodic(10, func(a, b clock.Time) (Value, error) { return 1.0, nil }), nil
	}})
	r.MustDefine(&Definition{Kind: "t", Build: func(*BuildContext) (Handler, error) {
		return NewTriggered(func(clock.Time) (Value, error) { return 1.0, nil }), nil
	}})
	for _, k := range []Kind{"od", "p", "t"} {
		s, _ := r.Subscribe(Kind(k))
		h := s.Handle()
		s.Unsubscribe()
		if _, err := h.Value(); !errors.Is(err, ErrUnsubscribed) {
			t.Fatalf("%s: read after removal: err = %v, want ErrUnsubscribed", k, err)
		}
	}

	// The states in which an item still has something to serve when it
	// is removed: a static value, a warm memo, a quarantined item's stale
	// publication, and a kind included again after release. After release
	// the old handle, its Float and Registry.Peek report ErrUnsubscribed
	// and the handle reports StaticMechanism; a re-inclusion serves live
	// values while the old handle stays released.
	rows := []struct {
		name string
		opts []EnvOption
		// define defines x; ready brings the subscribed x into the state
		// the row releases it in.
		define    func(r *Registry)
		ready     func(t *testing.T, env *Env, vc *clock.Virtual, s *Subscription)
		reinclude bool
	}{
		{name: "static", define: func(r *Registry) { defineConst(r, "x", 1.0) }},
		{name: "memoized on-demand", opts: []EnvOption{WithMemoizedOnDemand()},
			define: func(r *Registry) {
				defineConst(r, "c", 1.0)
				definePureSum(r, "x", 0, new(atomic.Int64), Dep(Self(), "c"))
			},
			ready: func(t *testing.T, env *Env, _ *clock.Virtual, s *Subscription) {
				s.Value()
				hits := env.Stats().MemoHits.Load()
				if v, err := s.Float(); err != nil || v != 1 || env.Stats().MemoHits.Load() != hits+1 {
					t.Fatalf("warm read = %v, %v with memo hits %d -> %d; want 1 from the memo", v, err, hits, env.Stats().MemoHits.Load())
				}
			}},
		{name: "periodic quarantined", opts: []EnvOption{WithBreaker(BreakerPolicy{
			FailureThreshold: 1, FailureWindow: 1 << 20, ProbeBackoff: 1000, MaxProbeBackoff: 4000,
		})},
			define: func(r *Registry) {
				calls := 0
				r.MustDefine(&Definition{Kind: "x", Build: func(*BuildContext) (Handler, error) {
					return NewPeriodic(10, func(_, _ clock.Time) (Value, error) {
						if calls++; calls > 1 {
							panic("window compute fails")
						}
						return 1.0, nil
					}), nil
				}})
			},
			ready: func(t *testing.T, _ *Env, vc *clock.Virtual, s *Subscription) {
				vc.Advance(10)
				if v, err := s.Float(); !errors.Is(err, ErrStale) || v != 1 {
					t.Fatalf("tripped read = %v, %v; want the stale 1", v, err)
				}
			}},
		{name: "re-included", reinclude: true, define: func(r *Registry) {
			n := 0.0
			r.MustDefine(&Definition{Kind: "x", Events: []string{"ev"}, Build: func(*BuildContext) (Handler, error) {
				return NewTriggered(func(clock.Time) (Value, error) { n++; return n, nil }), nil
			}})
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			vc := clock.NewVirtual()
			env := NewEnv(vc, row.opts...)
			r := env.NewRegistry("n1")
			row.define(r)
			s, err := r.Subscribe("x")
			if err != nil {
				t.Fatal(err)
			}
			if row.ready != nil {
				row.ready(t, env, vc, s)
			}
			h := s.Handle()
			s.Unsubscribe()
			released := func(when string) {
				t.Helper()
				if _, err := h.Value(); !errors.Is(err, ErrUnsubscribed) {
					t.Fatalf("%s: handle read err = %v, want ErrUnsubscribed", when, err)
				}
				if v, err := h.Float(); v != 0 || !errors.Is(err, ErrUnsubscribed) {
					t.Fatalf("%s: handle Float = %v, %v; want 0, ErrUnsubscribed", when, v, err)
				}
				if m := h.Mechanism(); m != StaticMechanism {
					t.Fatalf("%s: handle mechanism %v, want static", when, m)
				}
			}
			released("after release")
			if _, err := r.Peek("x"); !errors.Is(err, ErrUnsubscribed) {
				t.Fatalf("Peek after release: err = %v, want ErrUnsubscribed", err)
			}
			if !row.reinclude {
				return
			}
			s2, err := r.Subscribe("x")
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Unsubscribe()
			r.FireEvent("ev")
			if v, err := s2.Float(); err != nil || v != 3 {
				t.Fatalf("re-included read = %v, %v; want 3 (initial computes 1 and 2, one event)", v, err)
			}
			if v, err := r.Peek("x"); err != nil || v != 3.0 {
				t.Fatalf("Peek of the re-included kind = %v, %v; want 3", v, err)
			}
			released("after re-inclusion")
		})
	}
}
