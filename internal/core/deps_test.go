package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/clock"
)

// wire connects registries: node's inputs/outputs resolvers return the
// given registries.
func wire(node *Registry, inputs, outputs []*Registry) {
	node.SetNeighbors(
		func() []*Registry { return inputs },
		func() []*Registry { return outputs },
	)
}

// The downstream selectors have no non-test user: the resolution
// supports them and these tests construct them.

// Output selects the registry of the i-th downstream node (inter-node
// dependency on a node downstream, e.g. QoS specifications at sinks).
func Output(i int) Selector { return Selector{kind: selOutput, index: i} }

// EachOutput selects the registries of all downstream nodes.
func EachOutput() Selector { return Selector{kind: selEachOutput} }

func TestInterNodeDependencyUpstream(t *testing.T) {
	env, _ := testEnv()
	src := env.NewRegistry("src")
	op := env.NewRegistry("op")
	wire(op, []*Registry{src}, nil)
	defineConst(src, "outputRate", 0.5)
	defineDerived(op, "estRate", Dep(Input(0), "outputRate"))
	s, err := op.Subscribe("estRate")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if !src.IsIncluded("outputRate") {
		t.Fatal("upstream dependency not included at the source node")
	}
	if v, _ := s.Float(); v != 0.5 {
		t.Fatalf("estRate = %v, want 0.5", v)
	}
}

func TestInterNodeDependencyDownstream(t *testing.T) {
	env, _ := testEnv()
	op := env.NewRegistry("op")
	sink := env.NewRegistry("sink")
	wire(op, nil, []*Registry{sink})
	defineConst(sink, "qosLatency", 100.0)
	defineDerived(op, "budget", Dep(Output(0), "qosLatency"))
	s, err := op.Subscribe("budget")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if v, _ := s.Float(); v != 100 {
		t.Fatalf("budget = %v, want 100 (QoS from the sink downstream)", v)
	}
}

func TestEachInputGroupsAllInputs(t *testing.T) {
	env, _ := testEnv()
	a := env.NewRegistry("a")
	b := env.NewRegistry("b")
	join := env.NewRegistry("join")
	wire(join, []*Registry{a, b}, nil)
	defineConst(a, "outputRate", 0.2)
	defineConst(b, "outputRate", 0.3)
	join.MustDefine(&Definition{
		Kind: "totalInputRate",
		Deps: []DepRef{Dep(EachInput(), "outputRate")},
		Build: func(ctx *BuildContext) (Handler, error) {
			handles := ctx.DepGroup(0)
			if len(handles) != 2 {
				t.Fatalf("DepGroup has %d handles, want 2", len(handles))
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
	s, err := join.Subscribe("totalInputRate")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if v, _ := s.Float(); v != 0.5 {
		t.Fatalf("totalInputRate = %v, want 0.5", v)
	}
}

func TestInputIndexOutOfRange(t *testing.T) {
	env, _ := testEnv()
	op := env.NewRegistry("op")
	wire(op, []*Registry{env.NewRegistry("a")}, nil)
	defineDerived(op, "x", Dep(Input(3), "y"))
	if _, err := op.Subscribe("x"); !errors.Is(err, ErrBadSelector) {
		t.Fatalf("err = %v, want ErrBadSelector", err)
	}
}

func TestOptionalDependencyMayBeEmpty(t *testing.T) {
	env, _ := testEnv()
	op := env.NewRegistry("op") // no inputs wired
	op.MustDefine(&Definition{
		Kind: "x",
		Deps: []DepRef{OptionalDep(EachInput(), "rate")},
		Build: func(ctx *BuildContext) (Handler, error) {
			if n := len(ctx.DepGroup(0)); n != 0 {
				t.Fatalf("optional group has %d handles, want 0", n)
			}
			return NewStatic(1.0), nil
		},
	})
	s, err := op.Subscribe("x")
	if err != nil {
		t.Fatal(err)
	}
	s.Unsubscribe()
}

// TestCrossNodeTriggerPropagation reproduces the recursive inter-node
// propagation of Section 2.5: the window's estimated output rate
// depends on its input's estimated output rate, and the join depends
// on both windows. A change at one source must ripple to the join.
func TestCrossNodeTriggerPropagation(t *testing.T) {
	env, _ := testEnv()
	src1 := env.NewRegistry("src1")
	src2 := env.NewRegistry("src2")
	w1 := env.NewRegistry("w1")
	w2 := env.NewRegistry("w2")
	join := env.NewRegistry("join")
	wire(w1, []*Registry{src1}, []*Registry{join})
	wire(w2, []*Registry{src2}, []*Registry{join})
	wire(join, []*Registry{w1, w2}, nil)

	rate1 := 0.1
	src1.MustDefine(&Definition{
		Kind:   "estOutputRate",
		Events: []string{"rateChanged"},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) { return rate1, nil }), nil
		},
	})
	defineConst(src2, "estOutputRate", 0.2)
	// Windows pass the estimate through.
	defineDerived(w1, "estOutputRate", Dep(Input(0), "estOutputRate"))
	defineDerived(w2, "estOutputRate", Dep(Input(0), "estOutputRate"))
	// The join sums its inputs' estimates.
	defineDerived(join, "estInputRate", Dep(Input(0), "estOutputRate"), Dep(Input(1), "estOutputRate"))

	s, err := join.Subscribe("estInputRate")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if v, _ := s.Float(); math.Abs(v-0.3) > 1e-12 {
		t.Fatalf("estInputRate = %v, want 0.3", v)
	}

	rate1 = 0.4
	src1.FireEvent("rateChanged")
	if v, _ := s.Float(); math.Abs(v-0.6) > 1e-12 {
		t.Fatalf("estInputRate = %v, want 0.6 (update must propagate across three nodes)", v)
	}
	// Unsubscribing the join must exclude everything upstream.
	s.Unsubscribe()
	for _, r := range []*Registry{src1, src2, w1, w2, join} {
		if n := len(r.Included()); n != 0 {
			t.Fatalf("%s still has %d included items after unsubscription", r.ID(), n)
		}
	}
}

// TestDuplicateNotificationsAvoided checks Section 3.2.3: when a node
// depends on the same upstream item twice, the dependent is refreshed
// once per wave, not once per edge.
func TestDuplicateNotificationsAvoided(t *testing.T) {
	env, _ := testEnv()
	src := env.NewRegistry("src")
	op := env.NewRegistry("op")
	wire(op, []*Registry{src}, nil)
	v := 1.0
	src.MustDefine(&Definition{
		Kind:   "rate",
		Events: []string{"changed"},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) { return v, nil }), nil
		},
	})
	refreshes := 0
	op.MustDefine(&Definition{
		Kind: "double",
		Deps: []DepRef{Dep(Input(0), "rate"), Dep(Input(0), "rate")},
		Build: func(ctx *BuildContext) (Handler, error) {
			a, b := ctx.Dep(0), ctx.Dep(1)
			return NewTriggered(func(clock.Time) (Value, error) {
				refreshes++
				va, _ := a.Float()
				vb, _ := b.Float()
				return va + vb, nil
			}), nil
		},
	})
	s, _ := op.Subscribe("double")
	defer s.Unsubscribe()
	if got := src.Refs("rate"); got != 2 {
		t.Fatalf("Refs(rate) = %d, want 2 (two declared edges)", got)
	}
	refreshes = 0
	v = 3
	src.FireEvent("changed")
	if refreshes != 1 {
		t.Fatalf("dependent refreshed %d times for one change, want 1", refreshes)
	}
	if got, _ := s.Float(); got != 6 {
		t.Fatalf("double = %v, want 6", got)
	}
}

func TestModuleMetadata(t *testing.T) {
	env, _ := testEnv()
	op := env.NewRegistry("join")
	left := env.NewRegistry("join.left")
	right := env.NewRegistry("join.right")
	op.AttachModule("left", left)
	op.AttachModule("right", right)
	defineConst(left, "memUsage", 100.0)
	defineConst(right, "memUsage", 50.0)
	defineDerived(op, "memUsage", Dep(Module("left"), "memUsage"), Dep(Module("right"), "memUsage"))
	s, err := op.Subscribe("memUsage")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Float(); v != 150 {
		t.Fatalf("memUsage = %v, want 150 (sum of module usages, Section 4.5)", v)
	}
	s.Unsubscribe()
	if left.IsIncluded("memUsage") || right.IsIncluded("memUsage") {
		t.Fatal("module items not excluded")
	}
}

func TestNestedModuleMetadataRecursion(t *testing.T) {
	env, _ := testEnv()
	op := env.NewRegistry("op")
	outer := env.NewRegistry("op.m")
	inner := env.NewRegistry("op.m.inner")
	op.AttachModule("m", outer)
	outer.AttachModule("inner", inner)
	defineConst(inner, "size", 8.0)
	defineDerived(outer, "size", Dep(Module("inner"), "size"))
	defineDerived(op, "size", Dep(Module("m"), "size"))
	s, err := op.Subscribe("size")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if v, _ := s.Float(); v != 8 {
		t.Fatalf("size = %v, want 8 (metadata framework applied recursively to nested modules)", v)
	}
}

// TestDynamicDependencyResolution reproduces Section 4.4.3: item A is
// computable from B or C; when C is already included the resolver picks
// C, avoiding the inclusion cost of B.
func TestDynamicDependencyResolution(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "B", 10.0)
	defineConst(r, "C", 20.0)
	r.MustDefine(&Definition{
		Kind: "A",
		Deps: []DepRef{Dep(Self(), "B")}, // static default
		Resolve: func(rc *ResolveContext) []DepRef {
			if rc.IsIncluded(Self(), "C") {
				return []DepRef{Dep(Self(), "C")}
			}
			return []DepRef{Dep(Self(), "B")}
		},
		Build: func(ctx *BuildContext) (Handler, error) {
			dep := ctx.Dep(0)
			return NewTriggered(func(clock.Time) (Value, error) { return dep.Float() }), nil
		},
	})

	// Case 1: nothing included -> resolver picks B.
	s1, _ := r.Subscribe("A")
	if v, _ := s1.Float(); v != 10 {
		t.Fatalf("A = %v, want 10 via B", v)
	}
	if !r.IsIncluded("B") || r.IsIncluded("C") {
		t.Fatal("static default not used when nothing is included")
	}
	s1.Unsubscribe()

	// Case 2: C already included -> resolver redirects to C and B's
	// unnecessary inclusion is prevented.
	sc, _ := r.Subscribe("C")
	s2, _ := r.Subscribe("A")
	if v, _ := s2.Float(); v != 20 {
		t.Fatalf("A = %v, want 20 via C", v)
	}
	if r.IsIncluded("B") {
		t.Fatal("B included although C was available (dynamic resolution failed)")
	}
	s2.Unsubscribe()
	sc.Unsubscribe()
}

// TestInheritanceOverride reproduces Section 4.4.2: a specialized
// operator overrides the memory-usage item inherited from its super
// class to account for an additional data structure.
func TestInheritanceOverride(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("op")
	// "Super class" definition.
	defineConst(r, "baseMem", 100.0)
	defineDerived(r, "memUsage", Dep(Self(), "baseMem"))
	// "Subclass" overrides memUsage to add its auxiliary index.
	defineConst(r, "indexMem", 40.0)
	defineDerived(r, "memUsage", Dep(Self(), "baseMem"), Dep(Self(), "indexMem"))

	s, err := r.Subscribe("memUsage")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if v, _ := s.Float(); v != 140 {
		t.Fatalf("memUsage = %v, want 140 (overridden definition must win)", v)
	}
}

func TestSelectorStrings(t *testing.T) {
	cases := map[string]Selector{
		"self":       Self(),
		"input(1)":   Input(1),
		"eachInput":  EachInput(),
		"output(0)":  Output(0),
		"eachOutput": EachOutput(),
		"module(m)":  Module("m"),
	}
	for want, sel := range cases {
		if got := sel.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}
