package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
)

// testEnv returns a virtual-clock environment.
// Kind returns the item's kind.
func (h *Handle) Kind() Kind { return h.it.kind() }

// IsDefined reports whether the item kind has a definition.
func (r *Registry) IsDefined(kind Kind) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.searchSlot(kind)
	return ok
}

func testEnv() (*Env, *clock.Virtual) {
	vc := clock.NewVirtual()
	return NewEnv(vc), vc
}

// defineConst defines kind as a static item with value v.
func defineConst(r *Registry, kind Kind, v Value) {
	r.MustDefine(&Definition{
		Kind:  kind,
		Build: func(*BuildContext) (Handler, error) { return NewStatic(v), nil },
	})
}

// defineDerived defines kind as a triggered sum of its dependencies.
func defineDerived(r *Registry, kind Kind, deps ...DepRef) {
	r.MustDefine(&Definition{
		Kind: kind,
		Deps: deps,
		Build: func(ctx *BuildContext) (Handler, error) {
			handles := make([]*Handle, 0)
			for i := 0; i < ctx.NumDeps(); i++ {
				handles = append(handles, ctx.DepGroup(i)...)
			}
			return NewTriggered(func(clock.Time) (Value, error) {
				sum := 0.0
				for _, h := range handles {
					f, err := h.Float()
					if err != nil {
						return nil, err
					}
					sum += f
				}
				return sum, nil
			}), nil
		},
	})
}

func TestSubscribeUnknownItem(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	_, err := r.Subscribe("nope")
	if !errors.Is(err, ErrUnknownItem) {
		t.Fatalf("err = %v, want ErrUnknownItem", err)
	}
}

func TestSubscribeStatic(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "elementSize", int64(32))
	sub, err := r.Subscribe("elementSize")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	v, err := sub.Value()
	if err != nil || v.(int64) != 32 {
		t.Fatalf("Value = %v, %v; want 32", v, err)
	}
	if sub.Handle().Mechanism() != StaticMechanism {
		t.Fatalf("Mechanism = %v, want static", sub.Handle().Mechanism())
	}
}

func TestHandlerCreatedOncePerItem(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	builds := 0
	r.MustDefine(&Definition{
		Kind: "x",
		Build: func(*BuildContext) (Handler, error) {
			builds++
			return NewStatic(1.0), nil
		},
	})
	s1, _ := r.Subscribe("x")
	s2, _ := r.Subscribe("x")
	s3, _ := r.Subscribe("x")
	if builds != 1 {
		t.Fatalf("handler built %d times, want 1 (1-to-1 item/handler)", builds)
	}
	if got := r.Refs("x"); got != 3 {
		t.Fatalf("Refs = %d, want 3", got)
	}
	if got := env.Stats().SharedSubscriptions.Load(); got != 2 {
		t.Fatalf("SharedSubscriptions = %d, want 2", got)
	}
	s1.Unsubscribe()
	s2.Unsubscribe()
	if !r.IsIncluded("x") {
		t.Fatal("item removed while a subscription remains")
	}
	s3.Unsubscribe()
	if r.IsIncluded("x") {
		t.Fatal("item still included after last unsubscription")
	}
	if got := env.Stats().HandlersRemoved.Load(); got != 1 {
		t.Fatalf("HandlersRemoved = %d, want 1", got)
	}
}

func TestUnsubscribeIdempotent(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "x", 1.0)
	s1, _ := r.Subscribe("x")
	s2, _ := r.Subscribe("x")
	s1.Unsubscribe()
	s1.Unsubscribe() // double release must not steal s2's reference
	if !r.IsIncluded("x") {
		t.Fatal("double Unsubscribe released another consumer's reference")
	}
	if _, err := s1.Value(); !errors.Is(err, ErrUnsubscribed) {
		t.Fatalf("read after Unsubscribe: err = %v, want ErrUnsubscribed", err)
	}
	s2.Unsubscribe()
}

func TestReSubscribeAfterRemovalRebuilds(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	builds := 0
	r.MustDefine(&Definition{
		Kind: "x",
		Build: func(*BuildContext) (Handler, error) {
			builds++
			return NewStatic(1.0), nil
		},
	})
	s, _ := r.Subscribe("x")
	s.Unsubscribe()
	s2, _ := r.Subscribe("x")
	defer s2.Unsubscribe()
	if builds != 2 {
		t.Fatalf("builds = %d, want 2 (handler rebuilt after removal)", builds)
	}
}

// TestBuildMustReturnFreshHandler pins the refusal of a handler that has
// already served an inclusion: a Build that caches its handler across a
// release, and two kinds whose Build return the same handler, each fail
// the subscription with no residue — the dependency's references are
// back where they were, the kind is not included, the graph verifies —
// while the handler's first inclusion is left as it was.
func TestBuildMustReturnFreshHandler(t *testing.T) {
	times10 := func(ctx *BuildContext) Handler {
		h := ctx.Dep(0)
		return NewTriggered(func(clock.Time) (Value, error) {
			f, err := h.Float()
			return 10 * f, err
		})
	}
	// setup defines what the case needs on r over the on-demand src and
	// takes the handler's first inclusion; it returns that subscription
	// and the kind whose subscription must be refused.
	cases := []struct {
		name  string
		setup func(t *testing.T, r *Registry) (*Subscription, Kind)
	}{
		{"cached across release", func(t *testing.T, r *Registry) (*Subscription, Kind) {
			var cached Handler
			r.MustDefine(&Definition{Kind: "x", Deps: []DepRef{Dep(Self(), "src")}, Build: func(ctx *BuildContext) (Handler, error) {
				if cached == nil {
					cached = times10(ctx)
				}
				return cached, nil
			}})
			first, err := r.Subscribe("x")
			if err != nil {
				t.Fatal(err)
			}
			first.Unsubscribe()
			return first, "x"
		}},
		{"shared by two kinds", func(t *testing.T, r *Registry) (*Subscription, Kind) {
			var shared Handler
			r.MustDefine(&Definition{Kind: "a", Deps: []DepRef{Dep(Self(), "src")}, Build: func(ctx *BuildContext) (Handler, error) {
				shared = times10(ctx)
				return shared, nil
			}})
			r.MustDefine(&Definition{Kind: "b", Deps: []DepRef{Dep(Self(), "src")}, Build: func(*BuildContext) (Handler, error) {
				return shared, nil
			}})
			first, err := r.Subscribe("a")
			if err != nil {
				t.Fatal(err)
			}
			return first, "b"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, _ := testEnv()
			r := env.NewRegistry("n")
			src := 1.0
			r.MustDefine(&Definition{Kind: "src", Build: func(*BuildContext) (Handler, error) {
				return NewOnDemand(func(clock.Time) (Value, error) { return src, nil }), nil
			}})
			held, err := r.Subscribe("src")
			if err != nil {
				t.Fatal(err)
			}
			defer held.Unsubscribe()
			first, kind := tc.setup(t, r)
			ext := map[ItemKey]int{{Registry: "n", Kind: "src"}: 1}
			if !first.released {
				ext[ItemKey{Registry: "n", Kind: first.Handle().Kind()}] = 1
			}
			refs := r.Refs("src")

			if _, err := r.Subscribe(kind); err == nil || !strings.Contains(err.Error(), "Build must return a fresh handler") {
				t.Fatalf("subscribing %s: err = %v, want the fresh-handler refusal", kind, err)
			}
			if r.IsIncluded(kind) {
				t.Fatalf("%s included after the refused subscription", kind)
			}
			if got := r.Refs("src"); got != refs {
				t.Fatalf("Refs(src) = %d after the refused subscription, want %d", got, refs)
			}
			if errs := VerifyIntegrity(ext, r); len(errs) > 0 {
				t.Fatalf("integrity after the refused subscription: %v", errs)
			}

			// The first inclusion is as it was: a released one stays out of
			// service, a held one keeps refreshing from its dependency.
			h := first.Handle()
			if first.released {
				if _, err := h.Value(); !errors.Is(err, ErrUnsubscribed) {
					t.Fatalf("released first inclusion reads err = %v, want ErrUnsubscribed", err)
				}
				return
			}
			src = 2
			r.NotifyChanged("src")
			if v, err := h.Float(); err != nil || v != 20 {
				t.Fatalf("first inclusion = %v, %v after the dependency changed; want 20", v, err)
			}
			first.Unsubscribe()
		})
	}
}

func TestDependencyAutoInclusionAndExclusion(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "a", 2.0)
	defineConst(r, "b", 3.0)
	defineDerived(r, "sum", Dep(Self(), "a"), Dep(Self(), "b"))

	sub, err := r.Subscribe("sum")
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsIncluded("a") || !r.IsIncluded("b") {
		t.Fatal("dependencies not auto-included")
	}
	v, _ := sub.Float()
	if v != 5 {
		t.Fatalf("sum = %v, want 5", v)
	}
	sub.Unsubscribe()
	if r.IsIncluded("a") || r.IsIncluded("b") || r.IsIncluded("sum") {
		t.Fatal("dependencies not auto-excluded on unsubscription")
	}
}

func TestTraversalStopsAtProvidedItems(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "a", 1.0)
	defineDerived(r, "b", Dep(Self(), "a"))
	defineDerived(r, "c", Dep(Self(), "b"))

	sa, _ := r.Subscribe("a")
	before := env.Stats().IncludeTraversals.Load()
	sc, _ := r.Subscribe("c")
	steps := env.Stats().IncludeTraversals.Load() - before
	// c and b are new traversal steps; a is already provided and only
	// its refcount is bumped.
	if steps != 2 {
		t.Fatalf("traversal steps = %d, want 2 (stop at provided items)", steps)
	}
	if got := r.Refs("a"); got != 2 {
		t.Fatalf("Refs(a) = %d, want 2 (direct + via b)", got)
	}
	sc.Unsubscribe()
	if !r.IsIncluded("a") {
		t.Fatal("a excluded although directly subscribed")
	}
	if r.IsIncluded("b") || r.IsIncluded("c") {
		t.Fatal("b/c not excluded")
	}
	sa.Unsubscribe()
	if r.IsIncluded("a") {
		t.Fatal("a not excluded after its direct unsubscription")
	}
}

func TestDeepChainInclusion(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "k0", 1.0)
	const depth = 50
	for i := 1; i <= depth; i++ {
		defineDerived(r, Kind(fmt.Sprintf("k%d", i)), Dep(Self(), Kind(fmt.Sprintf("k%d", i-1))))
	}
	sub, err := r.Subscribe(Kind(fmt.Sprintf("k%d", depth)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Included()); got != depth+1 {
		t.Fatalf("included %d items, want %d", got, depth+1)
	}
	v, _ := sub.Float()
	if v != 1 {
		t.Fatalf("chained value = %v, want 1", v)
	}
	sub.Unsubscribe()
	if got := len(r.Included()); got != 0 {
		t.Fatalf("%d items left after unsubscription", got)
	}
}

func TestCycleDetection(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineDerived(r, "a", Dep(Self(), "b"))
	defineDerived(r, "b", Dep(Self(), "a"))
	_, err := r.Subscribe("a")
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if len(r.Included()) != 0 {
		t.Fatal("failed subscription left included items behind")
	}
}

func TestSelfCycleDetection(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineDerived(r, "a", Dep(Self(), "a"))
	if _, err := r.Subscribe("a"); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestRollbackOnMissingDependency(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "a", 1.0)
	defineDerived(r, "bad", Dep(Self(), "a"), Dep(Self(), "missing"))
	_, err := r.Subscribe("bad")
	if !errors.Is(err, ErrUnknownItem) {
		t.Fatalf("err = %v, want ErrUnknownItem", err)
	}
	if r.IsIncluded("a") {
		t.Fatal("partially included dependency not rolled back")
	}
	if got := env.Stats().HandlersCreated.Load() - env.Stats().HandlersRemoved.Load(); got != 0 {
		t.Fatalf("net handlers = %d after failed subscription, want 0", got)
	}
}

func TestRollbackOnBuildError(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "a", 1.0)
	r.MustDefine(&Definition{
		Kind: "bad",
		Deps: []DepRef{Dep(Self(), "a")},
		Build: func(*BuildContext) (Handler, error) {
			return nil, errors.New("boom")
		},
	})
	if _, err := r.Subscribe("bad"); err == nil {
		t.Fatal("expected build error")
	}
	if r.IsIncluded("a") {
		t.Fatal("dependency not rolled back after build error")
	}
}

func TestRedefineWhileInUseFails(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "x", 1.0)
	s, _ := r.Subscribe("x")
	err := r.Define(&Definition{
		Kind:  "x",
		Build: func(*BuildContext) (Handler, error) { return NewStatic(2.0), nil },
	})
	if !errors.Is(err, ErrItemInUse) {
		t.Fatalf("err = %v, want ErrItemInUse", err)
	}
	s.Unsubscribe()
	if err := r.Define(&Definition{
		Kind:  "x",
		Build: func(*BuildContext) (Handler, error) { return NewStatic(2.0), nil },
	}); err != nil {
		t.Fatalf("redefine after release failed: %v", err)
	}
	s2, _ := r.Subscribe("x")
	defer s2.Unsubscribe()
	if v, _ := s2.Float(); v != 2 {
		t.Fatalf("redefined value = %v, want 2", v)
	}
}

func TestDefineValidation(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	if err := r.Define(&Definition{Kind: "", Build: func(*BuildContext) (Handler, error) { return NewStatic(1), nil }}); err == nil {
		t.Fatal("empty kind accepted")
	}
	if err := r.Define(&Definition{Kind: "x"}); err == nil {
		t.Fatal("nil Build accepted")
	}
}

func TestAvailableAndIncludedSorted(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "zeta", 1.0)
	defineConst(r, "alpha", 1.0)
	defineConst(r, "mid", 1.0)
	av := r.Available()
	if len(av) != 3 || av[0] != "alpha" || av[1] != "mid" || av[2] != "zeta" {
		t.Fatalf("Available = %v", av)
	}
	s, _ := r.Subscribe("zeta")
	defer s.Unsubscribe()
	inc := r.Included()
	if len(inc) != 1 || inc[0] != "zeta" {
		t.Fatalf("Included = %v", inc)
	}
	if !r.IsDefined("alpha") || r.IsDefined("nope") {
		t.Fatal("IsDefined misbehaves")
	}
}

func TestProbeActivationLifecycle(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	var c Counter
	r.MustDefine(&Definition{
		Kind:  "counted",
		Probe: &c,
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) { return float64(c.Read()), nil }), nil
		},
	})
	c.Inc() // inactive: ignored
	if c.Read() != 0 {
		t.Fatal("inactive probe counted")
	}
	s1, _ := r.Subscribe("counted")
	s2, _ := r.Subscribe("counted")
	c.Inc()
	c.Inc()
	if v, _ := s1.Float(); v != 2 {
		t.Fatalf("probe value = %v, want 2", v)
	}
	s1.Unsubscribe()
	c.Inc() // still one subscription: active
	if !c.Active() {
		t.Fatal("probe deactivated while handler exists")
	}
	s2.Unsubscribe()
	if c.Active() {
		t.Fatal("probe still active after handler removal")
	}
	c.Inc()
	if c.Read() != 0 {
		t.Fatal("deactivated probe counted or kept stale count")
	}
}

func TestMechanismReporting(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "s", 1.0)
	r.MustDefine(&Definition{Kind: "od", Build: func(*BuildContext) (Handler, error) {
		return NewOnDemand(func(clock.Time) (Value, error) { return 1.0, nil }), nil
	}})
	r.MustDefine(&Definition{Kind: "p", Build: func(*BuildContext) (Handler, error) {
		return NewPeriodic(10, func(a, b clock.Time) (Value, error) { return 1.0, nil }), nil
	}})
	r.MustDefine(&Definition{Kind: "t", Build: func(*BuildContext) (Handler, error) {
		return NewTriggered(func(clock.Time) (Value, error) { return 1.0, nil }), nil
	}})
	subs := map[Kind]Mechanism{
		"s": StaticMechanism, "od": OnDemandMechanism,
		"p": PeriodicMechanism, "t": TriggeredMechanism,
	}
	for k, want := range subs {
		s, err := r.Subscribe(k)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := r.Mechanism(k); !ok || got != want {
			t.Fatalf("Mechanism(%s) = %v, want %v", k, got, want)
		}
		s.Unsubscribe()
	}
	if _, ok := r.Mechanism("s"); ok {
		t.Fatal("Mechanism reported for excluded item")
	}
}

func TestMechanismString(t *testing.T) {
	cases := map[Mechanism]string{
		StaticMechanism:    "static",
		OnDemandMechanism:  "on-demand",
		PeriodicMechanism:  "periodic",
		TriggeredMechanism: "triggered",
		Mechanism(99):      "mechanism(99)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(m), got, want)
		}
	}
}
