package core

import (
	"testing"
)

// TestPlanInvalidatedByStructuralChange caches a propagation plan, makes
// one structural change to the component, and announces again: the
// announce must not run the cached plan. A new transitive dependent
// keeps the seed set (and so the plan's key) unchanged, so only the
// structural version tells the plan apart; a stale plan leaves the new
// dependent at its inclusion-time value. The redefinition changes no
// edge of an included item, so the announce after it must rebuild the
// plan (a miss), not find the old one.
func TestPlanInvalidatedByStructuralChange(t *testing.T) {
	for _, change := range []string{"include", "merge", "redefine"} {
		t.Run(change, func(t *testing.T) {
			env, _ := testEnv()
			a := env.NewRegistry("a")
			src := 1.0
			defineCell(a, "src", "tick", &src)
			defineDerived(a, "mid", Dep(Self(), "src"))
			defineConst(a, "spare", 1.0)
			mid, err := a.Subscribe("mid")
			if err != nil {
				t.Fatal(err)
			}
			defer mid.Unsubscribe()
			// Two announces: the first builds the plan for {src}, the
			// second runs it from the cache.
			for _, v := range []float64{2, 3} {
				src = v
				a.FireEvent("tick")
			}
			if st := env.Stats(); st.PlanCacheHits.Load() == 0 {
				t.Fatalf("no plan cached: hits=%d misses=%d", st.PlanCacheHits.Load(), st.PlanCacheMisses.Load())
			}

			var top *Subscription
			switch change {
			case "include": // a dependent of mid in the same component
				defineDerived(a, "top", Dep(Self(), "mid"))
				top, err = a.Subscribe("top")
			case "merge": // a dependent of mid in a registry of its own
				b := env.NewRegistry("b")
				b.SetNeighbors(func() []*Registry { return []*Registry{a} }, nil)
				defineDerived(b, "top", Dep(Input(0), "mid"))
				if find(&a.comp) == find(&b.comp) {
					t.Fatal("components merged before any dependency edge exists")
				}
				top, err = b.Subscribe("top")
				if err == nil && find(&a.comp) != find(&b.comp) {
					t.Fatal("components not merged by the dependency edge")
				}
			case "redefine": // an unused kind: no edge changes
				err = a.Define(&Definition{
					Kind:  "spare",
					Build: func(*BuildContext) (Handler, error) { return NewStatic(2.0), nil },
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			if top != nil {
				defer top.Unsubscribe()
			}

			misses := env.Stats().PlanCacheMisses.Load()
			src = 4
			a.FireEvent("tick")
			if got := env.Stats().PlanCacheMisses.Load(); got != misses+1 {
				t.Fatalf("announce after the %s made %d plan misses, want 1 (a stale plan ran)", change, got-misses)
			}
			if v, err := mid.Float(); err != nil || v != 4 {
				t.Fatalf("mid = %v, %v; want 4", v, err)
			}
			if top != nil {
				if v, err := top.Float(); err != nil || v != 4 {
					t.Fatalf("top = %v, %v; want 4 (the cached plan did not refresh it)", v, err)
				}
			}
			if errs := VerifyIntegrity(nil, a); len(errs) > 0 {
				t.Fatalf("integrity: %v", errs)
			}
		})
	}
}
