package core

import (
	"fmt"
	"maps"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/clock"
)

// The benchmark's plane shape (benchmark/plane.go), rebuilt on the
// public API so the footprint guard and the graph microbenchmarks sit
// beside the code they measure: tenants -> pipelines -> ten chained
// operators; per operator `in` (static), `rate` (periodic), `sel`
// (triggered on `in`), `est` (triggered on own `sel`, own `rate` and the
// upstream `est`); per pipeline `mem_sum` (DeltaSum over its `est`); per
// tenant `mem_mean` (DeltaMean over its `mem_sum`).
const (
	planeOpsPerPipeline = 10
	planeTenants        = 2
	// planeItemsPerPipeline is a cold pipeline's inclusion closure:
	// four items per operator plus mem_sum.
	planeItemsPerPipeline = 4*planeOpsPerPipeline + 1
)

type testPlane struct {
	tenants   []*Registry
	pipelines []*Registry
	ops       []*Registry
	regs      []*Registry
}

func neighbors(regs []*Registry) func() []*Registry {
	return func() []*Registry { return regs }
}

// buildTestPlane defines the plane; nothing is included until
// subscribed.
func buildTestPlane(env *Env, pipelines int) *testPlane {
	p := &testPlane{}
	for t := 0; t < planeTenants; t++ {
		tn := env.NewRegistry(fmt.Sprintf("t%d", t))
		p.tenants = append(p.tenants, tn)
		p.regs = append(p.regs, tn)
		var pls []*Registry
		for i := 0; i < pipelines/planeTenants; i++ {
			pl := env.NewRegistry(fmt.Sprintf("t%d.p%03d", t, i))
			var ops []*Registry
			for j := 0; j < planeOpsPerPipeline; j++ {
				op := env.NewRegistry(fmt.Sprintf("t%d.p%03d.o%d", t, i, j))
				if j > 0 {
					op.SetNeighbors(neighbors(ops[j-1:j]), nil)
				}
				defineConst(op, "in", 1.0)
				op.MustDefine(&Definition{
					Kind: "rate",
					Build: func(*BuildContext) (Handler, error) {
						return NewPeriodic(100, func(_, _ clock.Time) (Value, error) { return 1.0, nil }), nil
					},
				})
				defineDerived(op, "sel", Dep(Self(), "in"))
				defineDerived(op, "est", Dep(Self(), "sel"), Dep(Self(), "rate"), OptionalDep(Input(0), "est"))
				ops = append(ops, op)
			}
			p.ops = append(p.ops, ops...)
			pl.SetNeighbors(neighbors(ops), nil)
			pl.MustDefine(&Definition{
				Kind:  "mem_sum",
				Deps:  []DepRef{Dep(EachInput(), "est")},
				Delta: DeltaSum(),
				Build: NewDeltaAggregate,
			})
			pls = append(pls, pl)
			p.regs = append(append(p.regs, pl), ops...)
		}
		tn.SetNeighbors(neighbors(pls), nil)
		tn.MustDefine(&Definition{
			Kind:  "mem_mean",
			Deps:  []DepRef{Dep(EachInput(), "mem_sum")},
			Delta: DeltaMean(),
			Build: NewDeltaAggregate,
		})
		p.pipelines = append(p.pipelines, pls...)
	}
	return p
}

// subscribeAll includes the whole plane top-down: one held subscription
// on each tenant's mem_mean.
func (p *testPlane) subscribeAll(tb testing.TB) []*Subscription {
	tb.Helper()
	var held []*Subscription
	for _, tn := range p.tenants {
		s, err := tn.Subscribe("mem_mean")
		if err != nil {
			tb.Fatalf("subscribing %s/mem_mean: %v", tn.ID(), err)
		}
		held = append(held, s)
	}
	return held
}

// subscribeReads defines and includes churn-read-mix's on-demand items
// on every operator: `cost` (pure, memoized on a WithMemoizedOnDemand
// env) and `cost_now` (volatile), both over the operator's `est`.
func (p *testPlane) subscribeReads(tb testing.TB) []*Subscription {
	tb.Helper()
	var held []*Subscription
	for _, op := range p.ops {
		for _, d := range []*Definition{
			{Kind: "cost", Deps: []DepRef{Dep(Self(), "est")}, Pure: true},
			{Kind: "cost_now", Deps: []DepRef{Dep(Self(), "est")}},
		} {
			d.Build = func(ctx *BuildContext) (Handler, error) {
				h := ctx.Dep(0)
				return NewOnDemand(func(clock.Time) (Value, error) { return h.Value() }), nil
			}
			op.MustDefine(d)
			s, err := op.Subscribe(d.Kind)
			if err != nil {
				tb.Fatalf("subscribing %s/%s: %v", op.ID(), d.Kind, err)
			}
			held = append(held, s)
		}
	}
	return held
}

func (p *testPlane) includedItems() int {
	n := 0
	for _, r := range p.regs {
		n += len(r.Included())
	}
	return n
}

// settledHeap returns HeapAlloc after two collections — the
// benchmark's method for plane_bytes_per_item.
func settledHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Ceilings of the footprint guard: bytes 2 % above what a 160-B item,
// whose publications keep their error out of line, landed — 376.8 B
// per included item on a plain env, 497.9 under WithBreaker and 390.4
// with churn-read-mix's on-demand items, where the 176-B item with the
// error inline read 392.8, 513.9 and 406.4, the 192-B item with a
// dependents slice read 408.8, 529.9 and 422.4, the 208-B item with a
// separately allocated node 433.5, 554.5 and 444.2, and one object
// per included item before the side block 484.5, 593.5 and 481.2 (and
// the plain plane, read before the plane kept its
// operator list, 496.7 B with a separate entry and item, 604 B with
// per-definition records, 773 B with a map of slots retaining
// Definitions, 1,210 B as a map-based graph) — and allocations 5 % above
// one build context per traversal's 238 per cold pipeline inclusion and
// release (one per built item: 278; a separate entry and item: 319; the
// flat dependency graph's first reading: 381; the map-based graph: 700).
const (
	maxPlaneBytesPerItem         = 385
	maxBreakerPlaneBytesPerItem  = 509
	maxOnDemandPlaneBytesPerItem = 399
	maxColdInclusionAllocs       = 250
)

// planeBytesPerItem builds the benchmark's plane shape at 20 pipelines
// on an env with opts — with churn-read-mix's on-demand items too when
// reads is set — and returns the settled heap per included item:
// definitions, registries, items, side blocks, edges and handlers.
func planeBytesPerItem(t *testing.T, reads bool, opts ...EnvOption) float64 {
	const pipelines = 20
	best := 0.0
	// Other tests' garbage or a late finalizer can only add to a
	// reading; the smallest of three is the plane's own footprint.
	for trial := 0; trial < 3; trial++ {
		before := settledHeap()
		p := buildTestPlane(NewEnv(clock.NewVirtual(), opts...), pipelines)
		held := p.subscribeAll(t)
		want := pipelines*planeItemsPerPipeline + planeTenants
		if reads {
			held = append(held, p.subscribeReads(t)...)
			want += 2 * len(p.ops)
		}
		after := settledHeap()
		items := p.includedItems()
		if items != want {
			t.Fatalf("included %d items, want %d", items, want)
		}
		if per := float64(after-before) / float64(items); trial == 0 || per < best {
			best = per
		}
		runtime.KeepAlive(held)
		runtime.KeepAlive(p)
	}
	return best
}

func checkPlaneBytes(t *testing.T, per float64, ceiling int) {
	t.Helper()
	t.Logf("%.1f B per included item (ceiling %d)", per, ceiling)
	if per > float64(ceiling) {
		t.Fatalf("plane costs %.1f B per included item, ceiling %d", per, ceiling)
	}
}

// TestFootprintPlaneBytesPerItem bounds the plane's bytes per included
// item on a plain env, the configuration of the benchmark's figure.
func TestFootprintPlaneBytesPerItem(t *testing.T) {
	checkPlaneBytes(t, planeBytesPerItem(t, false), maxPlaneBytesPerItem)
}

// TestFootprintBreakerPlaneBytesPerItem bounds it under WithBreaker,
// the configuration of mdserve -durable and durable-restart: every
// non-static item has a breaker, which is also its side block.
func TestFootprintBreakerPlaneBytesPerItem(t *testing.T) {
	checkPlaneBytes(t, planeBytesPerItem(t, false, WithBreaker(BreakerPolicy{})), maxBreakerPlaneBytesPerItem)
}

// TestFootprintOnDemandPlaneBytesPerItem bounds it with churn-read-mix's
// on-demand items included, whose read state lives in the side block.
func TestFootprintOnDemandPlaneBytesPerItem(t *testing.T) {
	checkPlaneBytes(t, planeBytesPerItem(t, true, WithMemoizedOnDemand()), maxOnDemandPlaneBytesPerItem)
}

// TestItemLayout pins the sizes the footprint is sized for: an item in
// the 160-B size class with its entry in 80 B and its inline snapshot in
// 24 B, a registry with its own union-find node in the 128-B one (the
// node alone 32 B), the side block and the breaker that embeds it in
// the 64-B and 160-B ones, and a stale publication's record in the 48-B
// one. A field added to any of them fails here before it moves a byte
// count.
func TestItemLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"item", unsafe.Sizeof(item{}), 160},
		{"entry", unsafe.Sizeof(entry{}), 80},
		{"valueSnapshot", unsafe.Sizeof(valueSnapshot{}), 24},
		{"Registry with its node", unsafe.Sizeof(Registry{}), 128},
		{"component", unsafe.Sizeof(component{}), 32},
		{"itemSide", unsafe.Sizeof(itemSide{}), 64},
		{"itemHealth", unsafe.Sizeof(itemHealth{}), 160},
		{"windowPolicy", unsafe.Sizeof(windowPolicy{}), 48},
		{"StaleError", unsafe.Sizeof(StaleError{}), 48},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d B, which takes the %d-B size class; ceiling %d B", c.name, c.size, sizeClass(c.size), c.max)
		}
	}
}

// sizeClass returns the heap size class an object of n bytes takes
// (the runtime's table up to 512 B).
func sizeClass(n uintptr) uintptr {
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512} {
		if n <= c {
			return c
		}
	}
	return n
}

// TestSideBlocksOnTestPlane counts side blocks on the 20-pipeline
// plane: only the delta aggregates (mem_sum, mem_mean) have one, so the
// traffic the item's layout is sized for is checked, not assumed.
func TestSideBlocksOnTestPlane(t *testing.T) {
	p := buildTestPlane(NewEnv(clock.NewVirtual()), 20)
	held := p.subscribeAll(t)
	defer func() {
		for _, s := range held {
			s.Unsubscribe()
		}
	}()
	blocks := map[Kind]int{}
	for _, r := range p.regs {
		for _, sl := range r.slots {
			if it := sl.entry; it != nil && it.side.Load() != nil {
				blocks[it.kind()]++
			}
		}
	}
	want := map[Kind]int{"mem_sum": 20, "mem_mean": planeTenants}
	if !maps.Equal(blocks, want) {
		t.Fatalf("side blocks by kind %v, want %v (in, rate, sel and est none)", blocks, want)
	}
}

// TestFootprintColdInclusionAllocs bounds the heap allocations of one
// cold pipeline inclusion (41 items, depth-first from mem_sum) and its
// release.
func TestFootprintColdInclusionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	p := buildTestPlane(NewEnv(clock.NewVirtual()), planeTenants)
	pl := p.pipelines[0]
	allocs := testing.AllocsPerRun(20, func() {
		s, err := pl.Subscribe("mem_sum")
		if err != nil {
			t.Fatal(err)
		}
		s.Unsubscribe()
	})
	t.Logf("%.0f allocations per cold %d-item inclusion and release (ceiling %d)",
		allocs, planeItemsPerPipeline, maxColdInclusionAllocs)
	if allocs > maxColdInclusionAllocs {
		t.Fatalf("cold inclusion costs %.0f allocations, ceiling %d", allocs, maxColdInclusionAllocs)
	}
}

// TestSharedSubscribeAllocatesOnlySubscription pins the shared path: a
// subscription to an item already provided allocates its Subscription
// and nothing else (no traversal state, no separate Handle).
func TestSharedSubscribeAllocatesOnlySubscription(t *testing.T) {
	p := buildTestPlane(NewEnv(clock.NewVirtual()), planeTenants)
	held := p.subscribeAll(t)
	defer func() {
		for _, s := range held {
			s.Unsubscribe()
		}
	}()
	allocs := testing.AllocsPerRun(100, func() {
		s, err := p.pipelines[0].Subscribe("mem_sum")
		if err != nil {
			t.Fatal(err)
		}
		s.Unsubscribe()
	})
	if allocs != 1 {
		t.Fatalf("shared subscribe + unsubscribe costs %.0f allocations, want 1", allocs)
	}
}

// TestColdTopDownSubscribeWidensByLevel pins the widening cost of a
// cold top-down subscribe: an attempt that leaves the locked scope
// notes every registry it ran into, so a tenant -> pipelines ->
// operators plane takes one attempt per level instead of one per
// registry, and the inclusion steps stay linear in the items.
func TestColdTopDownSubscribeWidensByLevel(t *testing.T) {
	const pipelines = 50
	env := NewEnv(clock.NewVirtual())
	p := buildTestPlane(env, planeTenants*pipelines)
	before := env.Stats().IncludeTraversals.Load()
	s, err := p.tenants[0].Subscribe("mem_mean")
	if err != nil {
		t.Fatal(err)
	}
	items := pipelines*planeItemsPerPipeline + 1
	if n := p.includedItems(); n != items {
		t.Fatalf("included %d items, want %d", n, items)
	}
	steps := env.Stats().IncludeTraversals.Load() - before
	t.Logf("%d inclusion steps for %d items", steps, items)
	if steps >= int64(3*items) {
		t.Fatalf("cold subscribe took %d inclusion steps for %d items, want < %d", steps, items, 3*items)
	}
	if errs := VerifyIntegrity(map[ItemKey]int{{Registry: "t0", Kind: "mem_mean"}: 1}, p.regs...); len(errs) > 0 {
		t.Fatalf("integrity: %v", errs)
	}

	// A failure below the widened levels leaves no residue: the second
	// tenant's last operator cannot build its est.
	last := p.regs[len(p.regs)-1]
	last.MustDefine(&Definition{
		Kind:  "est",
		Deps:  []DepRef{Dep(Self(), "sel")},
		Build: func(*BuildContext) (Handler, error) { return nil, fmt.Errorf("injected") },
	})
	if _, err := p.tenants[1].Subscribe("mem_mean"); err == nil {
		t.Fatal("subscribe over a failing Build succeeded")
	}
	if n := p.includedItems(); n != items {
		t.Fatalf("failed subscribe left residue: %d items included, want %d", n, items)
	}
	s.Unsubscribe()
	if n := p.includedItems(); n != 0 {
		t.Fatalf("%d items included after release", n)
	}
	if errs := VerifyIntegrity(map[ItemKey]int{}, p.regs...); len(errs) > 0 {
		t.Fatalf("integrity: %v", errs)
	}
}
