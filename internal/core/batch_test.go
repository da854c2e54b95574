package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

// definePeriodicEnd defines kind as a periodic item whose published
// value is the window end — easy to predict after any advance.
func definePeriodicEnd(r *Registry, kind Kind, window clock.Duration) {
	r.MustDefine(&Definition{
		Kind: kind,
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(window, func(start, end clock.Time) (Value, error) {
				return float64(end), nil
			}), nil
		},
	})
}

// subscribeTickScopes builds scopes registries — each its own dependency
// scope — of perScope same-window periodic items topped by a triggered
// fan-in over all of them, and subscribes every fan-in.
func subscribeTickScopes(tb testing.TB, env *Env, scopes, perScope int, window clock.Duration) []*Subscription {
	tb.Helper()
	subs := make([]*Subscription, 0, scopes)
	for sc := 0; sc < scopes; sc++ {
		r := env.NewRegistry(fmt.Sprintf("op%d", sc))
		deps := make([]DepRef, 0, perScope)
		for i := 0; i < perScope; i++ {
			kind := Kind(fmt.Sprintf("p%d", i))
			definePeriodicEnd(r, kind, window)
			deps = append(deps, Dep(Self(), kind))
		}
		defineDerived(r, "fanin", deps...)
		s, err := r.Subscribe("fanin")
		if err != nil {
			tb.Fatal(err)
		}
		subs = append(subs, s)
	}
	return subs
}

// countingUpdater wraps an inner updater and counts Submit calls. It
// is deliberately NOT the inlineUpdater type, so the tick dispatch
// takes the Submit path even when the inner updater runs synchronously
// — that is what makes dispatches countable.
type countingUpdater struct {
	inner   Updater
	submits atomic.Int64
}

func (c *countingUpdater) Submit(fn func()) {
	c.submits.Add(1)
	c.inner.Submit(fn)
}
func (c *countingUpdater) WaitIdle() { c.inner.WaitIdle() }
func (c *countingUpdater) Stop()     { c.inner.Stop() }

// TestBatchedTicksSubmitCount pins the dispatch economics of the
// batched pipeline: N same-boundary handlers cost one Updater.Submit
// and one coalesced propagation per dependency scope per boundary —
// not one per handler — and after the warm-up boundary every
// propagation runs a cached plan.
func TestBatchedTicksSubmitCount(t *testing.T) {
	const n, boundaries = 40, 3
	for _, scopes := range []int{1, 2} {
		perScope := n / scopes
		vc := clock.NewVirtual()
		cu := &countingUpdater{inner: NewInlineUpdater()}
		env := NewEnv(vc, WithUpdater(cu))
		subs := subscribeTickScopes(t, env, scopes, perScope, 10)
		vc.Advance(10) // warm-up boundary: builds the propagation plans
		cu.submits.Store(0)
		before := env.Stats().Snapshot()
		for b := 0; b < boundaries; b++ {
			vc.Advance(10)
		}
		st := env.Stats().Snapshot().Sub(before)

		want := int64(boundaries * scopes)
		if got := cu.submits.Load(); got != want {
			t.Fatalf("%d scopes: %d submits for %d boundaries, want %d", scopes, got, boundaries, want)
		}
		if st.ScopeBatches != want || st.BatchedTicks != boundaries*n {
			t.Fatalf("%d scopes: ScopeBatches=%d BatchedTicks=%d, want %d / %d",
				scopes, st.ScopeBatches, st.BatchedTicks, want, boundaries*n)
		}
		if got := st.MeanBatchSize(); got != float64(perScope) {
			t.Fatalf("%d scopes: MeanBatchSize = %v, want %d", scopes, got, perScope)
		}
		if st.TriggerNotifications != want {
			t.Fatalf("%d scopes: %d fan-in refreshes for %d boundaries, want %d (coalesced)",
				scopes, st.TriggerNotifications, boundaries, want)
		}
		if got := st.PlanHitRate(); got != 1 {
			t.Fatalf("%d scopes: PlanHitRate = %v, want 1 after warm-up", scopes, got)
		}
		sum := float64(perScope) * float64(env.Now())
		for _, s := range subs {
			if v, err := s.Float(); err != nil || v != sum {
				t.Fatalf("%d scopes: fanin = %v, %v; want %v", scopes, v, err, sum)
			}
			s.Unsubscribe()
		}
	}
}

// TestSiblingValueReadMidBatch is the lock-footprint regression for
// the batched tick path: a periodic compute that reads its sibling's
// Value() mid-batch must not deadlock (value reads are lock-free; no
// structural lock is held while a window computes), and — because the
// batch publishes in arm order, dependencies before dependents — it
// reads the sibling's freshly published window.
func TestSiblingValueReadMidBatch(t *testing.T) {
	for _, pool := range []bool{false, true} {
		name := "inline"
		if pool {
			name = "pool"
		}
		t.Run(name, func(t *testing.T) {
			vc := clock.NewVirtual()
			var opts []EnvOption
			if pool {
				u := NewPoolUpdater(2)
				defer u.Stop()
				opts = append(opts, WithUpdater(u))
			}
			env := NewEnv(vc, opts...)
			r := env.NewRegistry("op")
			definePeriodicEnd(r, "a", 10)
			r.MustDefine(&Definition{
				Kind: "b",
				Deps: []DepRef{Dep(Self(), "a")},
				Build: func(ctx *BuildContext) (Handler, error) {
					h := ctx.Dep(0)
					return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
						f, err := h.Float() // sibling read, mid-batch
						if err != nil {
							return nil, err
						}
						return f + 0.5, nil
					}), nil
				},
			})
			// Triggered sibling reading both during propagation, while
			// the scope lock is held.
			defineDerived(r, "t", Dep(Self(), "a"), Dep(Self(), "b"))
			s, err := r.Subscribe("t")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Unsubscribe()

			vc.Advance(10)
			env.Quiesce()
			if v, err := r.Peek("a"); err != nil || v != 10.0 {
				t.Fatalf("a = %v, %v; want 10", v, err)
			}
			// b armed after its dependency a, so its compute saw a's
			// new window.
			if v, err := r.Peek("b"); err != nil || v != 10.5 {
				t.Fatalf("b = %v, %v; want 10.5", v, err)
			}
			if v, err := s.Float(); err != nil || v != 20.5 {
				t.Fatalf("t = %v, %v; want 20.5", v, err)
			}
		})
	}
}

// TestPlanCacheInvalidationChurn interleaves subscribe/unsubscribe/
// redefinition with periodic boundaries and verifies that propagation
// never executes a stale plan: values stay exactly predictable and
// the structural invariants hold after every step.
func TestPlanCacheInvalidationChurn(t *testing.T) {
	const k = 4
	vc := clock.NewVirtual()
	env := NewEnv(vc)
	r := env.NewRegistry("op")
	deps := make([]DepRef, 0, k)
	for i := 0; i < k; i++ {
		kind := Kind(fmt.Sprintf("p%d", i))
		definePeriodicEnd(r, kind, 5)
		deps = append(deps, Dep(Self(), kind))
	}
	defineDerived(r, "fanin", deps...)
	defineDerived(r, "churn", Dep(Self(), "p0"), Dep(Self(), "p1"))
	defineConst(r, "spare", 1.0)

	fanin, err := r.Subscribe("fanin")
	if err != nil {
		t.Fatal(err)
	}
	defer fanin.Unsubscribe()

	var churn *Subscription
	for i := 0; i < 50; i++ {
		vc.Advance(5)
		now := float64(env.Now())
		// fanin must track every boundary despite the churn below: a
		// stale plan would miss it (wrong value) or refresh a removed
		// churn handler (panic / error).
		if v, err := fanin.Float(); err != nil || v != k*now {
			t.Fatalf("round %d: fanin = %v, %v; want %v", i, v, err, k*now)
		}
		switch i % 4 {
		case 0: // add a second dependent mid-stream
			churn, err = r.Subscribe("churn")
			if err != nil {
				t.Fatal(err)
			}
		case 1:
			if v, err := churn.Float(); err != nil || v != 2*now {
				t.Fatalf("round %d: churn = %v, %v; want %v", i, v, err, 2*now)
			}
		case 2: // remove it again
			churn.Unsubscribe()
			churn = nil
		case 3: // redefine an unused item: conservative invalidation
			if err := r.Define(&Definition{
				Kind:  "spare",
				Build: func(*BuildContext) (Handler, error) { return NewStatic(2.0), nil },
			}); err != nil {
				t.Fatal(err)
			}
		}
		if errs := VerifyIntegrity(nil, r); len(errs) > 0 {
			t.Fatalf("round %d: integrity: %v", i, errs)
		}
	}
	st := env.Stats().Snapshot()
	if st.PlanCacheMisses == 0 || st.PlanCacheHits == 0 {
		t.Fatalf("plan cache never exercised: hits=%d misses=%d", st.PlanCacheHits, st.PlanCacheMisses)
	}
	// Churn invalidates every 4 boundaries, so there must be real
	// hits between invalidations AND real misses from invalidation.
	if st.PlanCacheMisses < 10 {
		t.Fatalf("plan cache misses = %d, want >= 10 (invalidation not happening?)", st.PlanCacheMisses)
	}
}

// TestPlanCacheChurnConcurrent runs the same churn against a pool
// updater from several goroutines; under -race this exercises the
// plan cache's single-writer-under-scope-lock discipline.
func TestPlanCacheChurnConcurrent(t *testing.T) {
	const k = 4
	vc := clock.NewVirtual()
	u := NewPoolUpdater(2)
	defer u.Stop()
	env := NewEnv(vc, WithUpdater(u))
	r := env.NewRegistry("op")
	deps := make([]DepRef, 0, k)
	for i := 0; i < k; i++ {
		kind := Kind(fmt.Sprintf("p%d", i))
		definePeriodicEnd(r, kind, 5)
		deps = append(deps, Dep(Self(), kind))
	}
	defineDerived(r, "fanin", deps...)
	defineDerived(r, "churn", Dep(Self(), "p1"), Dep(Self(), "p2"))

	fanin, err := r.Subscribe("fanin")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // clock driver (advances must not be re-entrant)
		defer wg.Done()
		for i := 0; i < 100; i++ {
			vc.Advance(5)
		}
	}()
	go func() { // subscription churn
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s, err := r.Subscribe("churn")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Value(); err != nil {
				t.Error(err)
				return
			}
			s.Unsubscribe()
		}
	}()
	wg.Wait()
	env.Quiesce()

	if v, err := fanin.Float(); err != nil || v != k*float64(env.Now()) {
		t.Fatalf("fanin = %v, %v; want %v", v, err, k*float64(env.Now()))
	}
	fanin.Unsubscribe()
	if errs := VerifyIntegrity(map[ItemKey]int{}, r); len(errs) > 0 {
		t.Fatalf("integrity: %v", errs)
	}
	st := env.Stats().Snapshot()
	if st.HandlersCreated != st.HandlersRemoved {
		t.Fatalf("handler leak: %d created, %d removed", st.HandlersCreated, st.HandlersRemoved)
	}
}
