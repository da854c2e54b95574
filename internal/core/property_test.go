package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

// buildRandomDAG defines nItems items "i0".."iN" on a single registry
// where item ik depends on a random subset of items with smaller index
// (guaranteeing acyclicity). Returns the item kinds.
func buildRandomDAG(r *Registry, nItems int, rng *rand.Rand) []Kind {
	kinds := make([]Kind, nItems)
	for i := 0; i < nItems; i++ {
		kinds[i] = Kind(fmt.Sprintf("i%d", i))
		var deps []DepRef
		for j := 0; j < i; j++ {
			if rng.Intn(3) == 0 {
				deps = append(deps, Dep(Self(), kinds[j]))
			}
		}
		if len(deps) == 0 {
			defineConst(r, kinds[i], float64(i))
		} else {
			defineDerived(r, kinds[i], deps...)
		}
	}
	return kinds
}

// depsOf returns the declared dependencies of a defined kind (nil for
// an undefined one).
func depsOf(r *Registry, k Kind) []DepRef {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if i, ok := r.searchSlot(k); ok {
		return r.slots[i].shape.deps
	}
	return nil
}

// closure computes the transitive dependency closure of a set of
// subscribed kinds from the definitions.
func closure(r *Registry, subscribed map[Kind]int) map[Kind]bool {
	out := make(map[Kind]bool)
	var visit func(k Kind)
	visit = func(k Kind) {
		if out[k] {
			return
		}
		out[k] = true
		for _, d := range depsOf(r, k) {
			visit(d.Kind)
		}
	}
	for k, n := range subscribed {
		if n > 0 {
			visit(k)
		}
	}
	return out
}

// TestPropertyIncludedSetIsClosure: after any sequence of subscribe and
// unsubscribe operations, the set of included items equals exactly the
// dependency closure of the currently subscribed items, and no
// reference count is ever negative.
func TestPropertyIncludedSetIsClosure(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		env, _ := testEnv()
		r := env.NewRegistry("n")
		kinds := buildRandomDAG(r, 12, rng)

		subscribed := make(map[Kind]int)
		var live []*Subscription
		liveKind := make(map[*Subscription]Kind)

		for _, op := range opsRaw {
			if op%2 == 0 || len(live) == 0 {
				k := kinds[int(op/2)%len(kinds)]
				s, err := r.Subscribe(k)
				if err != nil {
					return false
				}
				live = append(live, s)
				liveKind[s] = k
				subscribed[k]++
			} else {
				i := int(op/2) % len(live)
				s := live[i]
				live = append(live[:i], live[i+1:]...)
				subscribed[liveKind[s]]--
				s.Unsubscribe()
			}
			// Invariant: included set == closure of subscribed set.
			want := closure(r, subscribed)
			got := r.Included()
			if len(got) != len(want) {
				return false
			}
			for _, k := range got {
				if !want[k] {
					return false
				}
			}
			// Invariant: every included item has positive refs.
			for _, k := range got {
				if r.Refs(k) <= 0 {
					return false
				}
			}
		}
		// Drain: after releasing everything, nothing stays included.
		for _, s := range live {
			s.Unsubscribe()
		}
		return len(r.Included()) == 0 &&
			env.Stats().HandlersCreated.Load() == env.Stats().HandlersRemoved.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyValuesMatchDefinition: derived (triggered) items always
// equal the sum over their dependency closure of the constant leaves,
// no matter the subscription order, because propagation keeps them
// fresh.
func TestPropertyDerivedValuesCorrect(t *testing.T) {
	f := func(seed int64, order []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		env, _ := testEnv()
		r := env.NewRegistry("n")
		kinds := buildRandomDAG(r, 10, rng)

		// Reference evaluation from the definitions.
		var eval func(k Kind) float64
		eval = func(k Kind) float64 {
			deps := depsOf(r, k)
			if len(deps) == 0 {
				// constant leaf: value is its index
				var idx int
				fmt.Sscanf(string(k), "i%d", &idx)
				return float64(idx)
			}
			sum := 0.0
			for _, d := range deps {
				sum += eval(d.Kind)
			}
			return sum
		}

		var subs []*Subscription
		for _, o := range order {
			k := kinds[int(o)%len(kinds)]
			s, err := r.Subscribe(k)
			if err != nil {
				return false
			}
			subs = append(subs, s)
			v, err := s.Float()
			if err != nil || v != eval(k) {
				return false
			}
		}
		// All earlier subscriptions must still read correct values.
		for _, s := range subs {
			v, err := s.Float()
			if err != nil || v != eval(s.Handle().Kind()) {
				return false
			}
			s.Unsubscribe()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPropagationReachesClosure: firing a change event on a
// random leaf refreshes exactly the triggered items whose dependency
// closure contains that leaf.
func TestPropertyPropagationReachesClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env, _ := testEnv()
		r := env.NewRegistry("n")

		// Leaf with an event, plus a random DAG above it.
		leafVal := 1.0
		r.MustDefine(&Definition{
			Kind:   "leaf",
			Events: []string{"changed"},
			Build: func(*BuildContext) (Handler, error) {
				return NewTriggered(func(clock.Time) (Value, error) { return leafVal, nil }), nil
			},
		})
		kinds := []Kind{"leaf"}
		dependsOnLeaf := map[Kind]bool{"leaf": true}
		for i := 1; i < 10; i++ {
			k := Kind(fmt.Sprintf("i%d", i))
			var deps []DepRef
			viaLeaf := false
			for _, prev := range kinds {
				if rng.Intn(3) == 0 {
					deps = append(deps, Dep(Self(), prev))
					if dependsOnLeaf[prev] {
						viaLeaf = true
					}
				}
			}
			if len(deps) == 0 {
				defineConst(r, k, float64(i))
			} else {
				defineDerived(r, k, deps...)
				dependsOnLeaf[k] = viaLeaf
			}
			kinds = append(kinds, k)
		}

		top := kinds[len(kinds)-1]
		s, err := r.Subscribe(top)
		if err != nil {
			return false
		}
		defer s.Unsubscribe()

		before := env.Stats().TriggeredUpdates.Load()
		leafVal = 2
		r.FireEvent("changed")
		refreshed := env.Stats().TriggeredUpdates.Load() - before

		// Count included triggered items depending on leaf (incl. leaf
		// itself if included).
		want := int64(0)
		for _, k := range r.Included() {
			if dependsOnLeaf[k] {
				want++
			}
		}
		if !r.IsIncluded("leaf") {
			// Leaf not in the closure of top: no refresh may happen.
			return refreshed == 0
		}
		return refreshed == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
