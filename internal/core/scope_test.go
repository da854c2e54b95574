package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
)

// TestComponentsMergeOnDependencyEdge verifies the union-find: two
// registries start as separate dependency-scope components and share
// one once an inter-registry dependency edge is created.
func TestComponentsMergeOnDependencyEdge(t *testing.T) {
	env, _ := testEnv()
	a := env.NewRegistry("a")
	b := env.NewRegistry("b")
	defineConst(b, "base", 2.0)
	a.SetNeighbors(func() []*Registry { return []*Registry{b} }, nil)
	defineDerived(a, "up", Dep(Input(0), "base"))

	if find(&a.comp) == find(&b.comp) {
		t.Fatal("components merged before any dependency edge exists")
	}
	s, err := a.Subscribe("up")
	if err != nil {
		t.Fatal(err)
	}
	if find(&a.comp) != find(&b.comp) {
		t.Fatal("components not merged by inter-registry subscription")
	}
	v, err := s.Float()
	if err != nil || v != 2.0 {
		t.Fatalf("value = %v, %v; want 2", v, err)
	}
	s.Unsubscribe()
	// Components stay merged after release (conservative, documented).
	if find(&a.comp) != find(&b.comp) {
		t.Fatal("components split on unsubscribe")
	}
	if got := len(a.Included()) + len(b.Included()); got != 0 {
		t.Fatalf("%d items left included", got)
	}
}

// TestModuleKeepsOwnComponentUntilLinked verifies that AttachModule
// does not merge scopes by itself, and that a metadata link through the
// module does.
func TestModuleKeepsOwnComponentUntilLinked(t *testing.T) {
	env, _ := testEnv()
	op := env.NewRegistry("op")
	mod := env.NewRegistry("op.state")
	op.AttachModule("state", mod)
	if find(&op.comp) == find(&mod.comp) {
		t.Fatal("attach merged components without a metadata link")
	}

	defineConst(mod, "memUsage", 64.0)
	defineDerived(op, "memUsage", Dep(Module("state"), "memUsage"))
	s, err := op.Subscribe("memUsage")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if find(&op.comp) != find(&mod.comp) {
		t.Fatal("module dependency did not merge components")
	}
}

// TestCrossComponentSubscribeNoDeadlock hammers cross-component
// subscriptions from many goroutines over a ring of registries:
// goroutine work on registry i creates dependency edges i -> i+1 while
// its neighbors do the same. Without the deterministic component-id
// lock order (plus widen-and-retry), opposing acquisition orders
// deadlock. Run with -race.
func TestCrossComponentSubscribeNoDeadlock(t *testing.T) {
	env, _ := testEnv()
	const n = 16
	regs := make([]*Registry, n)
	for i := range regs {
		regs[i] = env.NewRegistry(fmt.Sprintf("n%d", i))
		defineConst(regs[i], "base", float64(i))
	}
	for i := range regs {
		next := regs[(i+1)%n]
		regs[i].SetNeighbors(func() []*Registry { return []*Registry{next} }, nil)
		defineDerived(regs[i], "up", Dep(Input(0), "base"))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := regs[(g+i)%n]
				s, err := r.Subscribe("up")
				if err != nil {
					t.Error(err)
					return
				}
				want := float64(((g+i)%n + 1) % n)
				if v, err := s.Float(); err != nil || v != want {
					t.Errorf("value = %v, %v; want %v", v, err, want)
					s.Unsubscribe()
					return
				}
				s.Unsubscribe()
			}
		}(g)
	}
	wg.Wait()
	for _, r := range regs {
		if got := len(r.Included()); got != 0 {
			t.Fatalf("%s: %d items left included", r.ID(), got)
		}
	}
	if c, rm := env.Stats().HandlersCreated.Load(), env.Stats().HandlersRemoved.Load(); c != rm {
		t.Fatalf("created %d != removed %d", c, rm)
	}
}

// TestIndependentComponentsChurnWithPeriodicPublishes exercises the
// sharding win end to end: concurrent subscribe/unsubscribe on
// *different* components in parallel with periodic publishes (and the
// trigger propagation they batch under each owning component's lock).
// Run with -race.
func TestIndependentComponentsChurnWithPeriodicPublishes(t *testing.T) {
	env, vc := testEnv()
	const n = 8
	regs := make([]*Registry, n)
	pinned := make([]*Subscription, n)
	for i := range regs {
		r := env.NewRegistry(fmt.Sprintf("p%d", i))
		r.MustDefine(&Definition{
			Kind: "tick",
			Build: func(*BuildContext) (Handler, error) {
				return NewPeriodic(5, func(start, end clock.Time) (Value, error) {
					return float64(end), nil
				}), nil
			},
		})
		defineDerived(r, "echo", Dep(Self(), "tick"))
		regs[i] = r
		// Pin the periodic item so it keeps publishing (and
		// propagating to "echo" subscribers) throughout the churn.
		s, err := r.Subscribe("echo")
		if err != nil {
			t.Fatal(err)
		}
		pinned[i] = s
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range regs {
		wg.Add(1)
		go func(r *Registry) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := r.Subscribe("echo")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Float(); err != nil {
					t.Error(err)
					s.Unsubscribe()
					return
				}
				s.Unsubscribe()
			}
		}(regs[i])
	}
	vc.Advance(500)
	close(stop)
	wg.Wait()
	for i, s := range pinned {
		v, err := s.Float()
		if err != nil {
			t.Fatal(err)
		}
		if v != 500 {
			t.Fatalf("reg %d: value = %v, want 500", i, v)
		}
		s.Unsubscribe()
	}
}

// TestScopeWidenRollbackLeavesNoResidue forces the widen-and-retry
// path of Subscribe (first attempt escapes the initial scope after
// partially including local dependencies) and checks that the rollback
// plus retry produces exactly one clean inclusion.
func TestScopeWidenRollbackLeavesNoResidue(t *testing.T) {
	env, _ := testEnv()
	a := env.NewRegistry("a")
	b := env.NewRegistry("b")
	defineConst(b, "remote", 5.0)
	a.SetNeighbors(func() []*Registry { return []*Registry{b} }, nil)
	defineConst(a, "local", 1.0)
	// "top" includes a local dependency first, then escapes to b: the
	// first attempt includes "local", rolls back, and retries under
	// the widened scope.
	defineDerived(a, "top", Dep(Self(), "local"), Dep(Input(0), "remote"))

	s, err := a.Subscribe("top")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s.Float(); err != nil || v != 6.0 {
		t.Fatalf("value = %v, %v; want 6", v, err)
	}
	if refs := a.Refs("local"); refs != 1 {
		t.Fatalf("local refs = %d, want 1 (rollback residue?)", refs)
	}
	s.Unsubscribe()
	if got := len(a.Included()) + len(b.Included()); got != 0 {
		t.Fatalf("%d items left included", got)
	}
	if c, rm := env.Stats().HandlersCreated.Load(), env.Stats().HandlersRemoved.Load(); c != rm {
		t.Fatalf("created %d != removed %d", c, rm)
	}
}
