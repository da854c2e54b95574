package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
)

// shapeIn returns the shape of a defined kind.
func shapeIn(r *Registry, k Kind) *defShape {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.searchSlot(k)
	if !ok {
		return nil
	}
	return r.slots[i].shape
}

// shapeCount is the number of shapes the env has interned.
func shapeCount(env *Env) int {
	env.shapeMu.Lock()
	defer env.shapeMu.Unlock()
	return len(env.shapes)
}

type nopProbe struct{}

func (nopProbe) Activate()   {}
func (nopProbe) Deactivate() {}

// TestShapeInterning: what two definitions share is decided by their
// shape fields alone — equal content is one object whatever the
// instances' closures and specs, and a difference in any one field, or
// in where a byte falls between two fields, is another shape.
func TestShapeInterning(t *testing.T) {
	build := func(*BuildContext) (Handler, error) { return NewStatic(1.0), nil }
	base := func() Definition {
		return Definition{
			Kind:            "x",
			Deps:            []DepRef{Dep(Input(0), "a"), OptionalDep(Module("m"), "b")},
			Events:          []string{"e0", "e1"},
			ComputeDeadline: 5,
			Persist:         "codec",
			Pure:            true,
			Build:           build,
		}
	}
	env, _ := testEnv()
	first, r0 := base(), env.NewRegistry("r0")
	r0.MustDefine(&first)
	want := shapeIn(r0, "x")

	same := map[string]func(d *Definition){
		"equal content from other slices": func(d *Definition) {},
		"another Build":                   func(d *Definition) { d.Build = func(*BuildContext) (Handler, error) { return NewStatic(2.0), nil } },
		"an AdaptSpec":                    func(d *Definition) { d.Adapt = &AdaptSpec{Window: 10} },
		"a Resolve hook":                  func(d *Definition) { d.Resolve = func(*ResolveContext) []DepRef { return nil } },
		"a Probe":                         func(d *Definition) { d.Probe = nopProbe{} },
		"a Delta spec":                    func(d *Definition) { d.Delta = DeltaSum() },
		"codec args":                      func(d *Definition) { d.PersistArgs = "7" },
		"spare capacity in its slices": func(d *Definition) {
			d.Deps, d.Events = append(make([]DepRef, 0, 8), d.Deps...), append(make([]string, 0, 8), d.Events...)
		},
	}
	for name, change := range same {
		d := base()
		change(&d)
		r := env.NewRegistry(name)
		r.MustDefine(&d)
		if got := shapeIn(r, "x"); got != want {
			t.Errorf("%s: shape %p, want the shared %p", name, got, want)
		}
	}

	other := map[string]func(d *Definition){
		"kind":              func(d *Definition) { d.Kind = "y" },
		"selector kind":     func(d *Definition) { d.Deps[0].Target = Output(0) },
		"selector index":    func(d *Definition) { d.Deps[0].Target = Input(1) },
		"negative index":    func(d *Definition) { d.Deps[0].Target = Input(-1) },
		"module name":       func(d *Definition) { d.Deps[1].Target = Module("n") },
		"item kind":         func(d *Definition) { d.Deps[0].Kind = "c" },
		"Optional":          func(d *Definition) { d.Deps[0].Optional = true },
		"deps order":        func(d *Definition) { d.Deps[0], d.Deps[1] = d.Deps[1], d.Deps[0] },
		"one dep fewer":     func(d *Definition) { d.Deps = d.Deps[:1] },
		"no deps":           func(d *Definition) { d.Deps = nil },
		"events order":      func(d *Definition) { d.Events[0], d.Events[1] = d.Events[1], d.Events[0] },
		"one event fewer":   func(d *Definition) { d.Events = d.Events[:1] },
		"events joined":     func(d *Definition) { d.Events = []string{"e0e1"} },
		"ComputeDeadline":   func(d *Definition) { d.ComputeDeadline = 6 },
		"no deadline":       func(d *Definition) { d.ComputeDeadline = 0 },
		"Persist":           func(d *Definition) { d.Persist = "codec2" },
		"no Persist":        func(d *Definition) { d.Persist = "" },
		"Pure":              func(d *Definition) { d.Pure = false },
		"module a, kind bc": func(d *Definition) { d.Deps[1] = OptionalDep(Module("a"), "bc") },
		"module ab, kind c": func(d *Definition) { d.Deps[1] = OptionalDep(Module("ab"), "c") },
		"kind xa, dep b":    func(d *Definition) { d.Kind, d.Deps = "xa", []DepRef{Dep(Self(), "b")} },
		"kind x, dep ab":    func(d *Definition) { d.Kind, d.Deps = "x", []DepRef{Dep(Self(), "ab")} },
		"event as codec":    func(d *Definition) { d.Events, d.Persist = []string{"e0", "e1", "codec"}, "" },
	}
	seen := map[*defShape]string{want: "the base definition"}
	for name, change := range other {
		d := base()
		change(&d)
		r := env.NewRegistry(name)
		r.MustDefine(&d)
		got := shapeIn(r, d.Kind)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: shares its shape with %s", name, prev)
		}
		seen[got] = name
		// The same content again finds the shape just made.
		r2 := env.NewRegistry(name + "'")
		d2 := base()
		change(&d2)
		r2.MustDefine(&d2)
		if again := shapeIn(r2, d.Kind); again != got {
			t.Errorf("%s: defined twice, interned twice (%p, %p)", name, got, again)
		}
	}
	if n := shapeCount(env); n != len(seen) {
		t.Fatalf("env holds %d shapes, want %d", n, len(seen))
	}
}

// TestShapeRedefinitionSwapsTheSlot: redefining an unused kind points
// the slot at the shape of its new content; the old shape stays with
// the registries still defining it.
func TestShapeRedefinitionSwapsTheSlot(t *testing.T) {
	env, _ := testEnv()
	r1, r2 := env.NewRegistry("r1"), env.NewRegistry("r2")
	for _, r := range []*Registry{r1, r2} {
		defineConst(r, "a", 1.0)
		defineConst(r, "b", 10.0)
		defineDerived(r, "x", Dep(Self(), "a"))
	}
	old := shapeIn(r1, "x")
	if shapeIn(r2, "x") != old {
		t.Fatal("equal definitions on two registries do not share a shape")
	}
	defineDerived(r1, "x", Dep(Self(), "a"), Dep(Self(), "b"))
	if got := shapeIn(r1, "x"); got == old || len(got.deps) != 2 {
		t.Fatalf("redefinition left r1 on shape %p (%d deps), old %p", got, len(got.deps), old)
	}
	if shapeIn(r2, "x") != old || len(old.deps) != 1 {
		t.Fatal("r1's redefinition reached r2's shape")
	}
	if got := peekFloat(t, r1, "x"); got != 11 {
		t.Fatalf("redefined r1/x = %v, want 11", got)
	}
	if got := peekFloat(t, r2, "x"); got != 1 {
		t.Fatalf("r2/x = %v, want 1", got)
	}
	// Back to the first content: the first shape again, not a third.
	defineDerived(r1, "x", Dep(Self(), "a"))
	if shapeIn(r1, "x") != old {
		t.Fatal("defining the old content again made a new shape")
	}
	if errs := VerifyIntegrity(nil, r1, r2); len(errs) > 0 {
		t.Fatalf("integrity: %v", errs)
	}
}

// TestShapeSurvivesCallerMutation: the shape holds clones of the first
// definer's slices, so that caller writing to them afterwards reaches
// neither its own registry nor one sharing the shape.
func TestShapeSurvivesCallerMutation(t *testing.T) {
	env, _ := testEnv()
	r1, r2 := env.NewRegistry("r1"), env.NewRegistry("r2")
	for _, r := range []*Registry{r1, r2} {
		defineConst(r, "a", 1.0)
		defineConst(r, "b", 10.0)
	}
	deps, events := []DepRef{Dep(Self(), "a")}, []string{"e0"}
	fired := map[*Registry]int{}
	define := func(r *Registry, deps []DepRef, events []string) {
		r.MustDefine(&Definition{
			Kind: "x", Deps: deps, Events: events,
			Build: func(ctx *BuildContext) (Handler, error) {
				h := ctx.Dep(0)
				return NewTriggered(func(clock.Time) (Value, error) { fired[r]++; return h.Float() }), nil
			},
		})
	}
	define(r1, deps, events)
	define(r2, []DepRef{Dep(Self(), "a")}, []string{"e0"})
	if shapeIn(r1, "x") != shapeIn(r2, "x") {
		t.Fatal("equal definitions do not share a shape")
	}
	deps[0], events[0] = Dep(Self(), "b"), "e1"

	for _, r := range []*Registry{r1, r2} {
		s, err := r.Subscribe("x")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Unsubscribe()
		if v, _ := s.Float(); v != 1 || r.IsIncluded("b") {
			t.Fatalf("%s/x = %v (b included: %v), want 1 from a", r.ID(), v, r.IsIncluded("b"))
		}
		before := fired[r]
		r.FireEvent("e1")
		r.FireEvent("e0")
		if fired[r] != before+1 {
			t.Fatalf("%s/x refreshed %d times over e1 and e0, want once (e0)", r.ID(), fired[r]-before)
		}
	}
	if errs := VerifyIntegrity(nil, r1, r2); len(errs) > 0 {
		t.Fatalf("integrity: %v", errs)
	}
}

// TestShapeConcurrentDefine: eight goroutines, each on registries of its
// own, define the same shapes as everyone else and fresh ones of their
// own while readers Peek through the tables. Run with -race.
func TestShapeConcurrentDefine(t *testing.T) {
	const workers, regsEach, freshEach = 8, 50, 20
	env, _ := testEnv()
	regs := make([][]*Registry, workers)
	for w := range regs {
		regs[w] = make([]*Registry, regsEach)
		for i := range regs[w] {
			r := env.NewRegistry(fmt.Sprintf("w%d.r%d", w, i))
			defineConst(r, "held", float64(w))
			if _, err := r.Subscribe("held"); err != nil {
				t.Fatal(err)
			}
			regs[w][i] = r
		}
	}
	stop := make(chan struct{})
	var readers, definers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				w := k % workers
				r := regs[w][k%regsEach]
				if v, err := r.Peek("held"); err != nil || v != float64(w) {
					t.Errorf("Peek(%s/held) = %v, %v beside Define", r.ID(), v, err)
					return
				}
				r.IsDefined("sel")
				r.Adaptable("sel")
			}
		}()
	}
	for w := 0; w < workers; w++ {
		definers.Add(1)
		go func(w int) {
			defer definers.Done()
			for i, r := range regs[w] {
				defineConst(r, "in", 1.0)
				defineDerived(r, "sel", Dep(Self(), "in"))
				defineDerived(r, "est", Dep(Self(), "sel"), OptionalDep(Input(0), "est"))
				if i < freshEach {
					defineDerived(r, Kind(fmt.Sprintf("own.%d.%d", w, i)), Dep(Self(), "est"))
				}
			}
		}(w)
	}
	definers.Wait()
	close(stop)
	readers.Wait()

	// held (its value is the closure's, not the shape's), in, sel, est,
	// and every worker's fresh kinds.
	if got, want := shapeCount(env), 4+workers*freshEach; got != want {
		t.Fatalf("env holds %d shapes, want %d", got, want)
	}
	var all []*Registry
	for w := range regs {
		for _, r := range regs[w] {
			if shapeIn(r, "est") != shapeIn(regs[0][0], "est") {
				t.Fatalf("%s/est has a shape of its own", r.ID())
			}
			if got := peekFloat(t, r, "est"); got != 1 {
				t.Fatalf("%s/est = %v, want 1", r.ID(), got)
			}
			all = append(all, r)
		}
	}
	ext := map[ItemKey]int{}
	for _, r := range all {
		ext[ItemKey{Registry: r.ID(), Kind: "held"}] = 1
	}
	if errs := VerifyIntegrity(ext, all...); len(errs) > 0 {
		t.Fatalf("integrity: %d violations, first: %v", len(errs), errs[0])
	}
}

// TestShapeCountIsTheProgramsNotThePlanes: the table grows with the
// distinct definitions the code declares — six on the benchmark's plane
// shape, ten for any number of ten-kind chains — not with the registries
// defining them.
func TestShapeCountIsTheProgramsNotThePlanes(t *testing.T) {
	env := NewEnv(clock.NewVirtual())
	p := buildTestPlane(env, 20)
	if got := shapeCount(env); got != 6 {
		t.Fatalf("the test plane interned %d shapes, want 6 (in, rate, sel, est, mem_sum, mem_mean)", got)
	}
	held := p.subscribeAll(t)
	if errs := VerifyIntegrity(nil, p.regs...); len(errs) > 0 {
		t.Fatalf("integrity: %v", errs)
	}
	for _, s := range held {
		s.Unsubscribe()
	}

	const chains, chainLen = 10000, 10
	env = NewEnv(clock.NewVirtual())
	var last *Registry
	for i := 0; i < chains; i++ {
		last = env.NewRegistry("chain")
		for k := 0; k < chainLen; k++ {
			def := Definition{
				Kind: Kind(fmt.Sprintf("c%d", k)), Persist: "codec", PersistArgs: fmt.Sprintf("%d,%d", i, k),
				Build: func(ctx *BuildContext) (Handler, error) {
					n := float64(ctx.NumDeps())
					return NewTriggered(func(clock.Time) (Value, error) { return n, nil }), nil
				},
			}
			if k > 0 {
				def.Deps = []DepRef{Dep(Self(), Kind(fmt.Sprintf("c%d", k-1)))}
			}
			last.MustDefine(&def)
		}
	}
	if got := shapeCount(env); got != chainLen {
		t.Fatalf("%d chains of %d kinds interned %d shapes, want %d", chains, chainLen, got, chainLen)
	}
	if got := peekFloat(t, last, "c9"); got != 1 {
		t.Fatalf("the last chain's tail = %v, want 1", got)
	}
}
