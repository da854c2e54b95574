package costmodel

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/stream"
)

var intSchema = stream.Schema{Name: "ints", Fields: []stream.Field{{Name: "v", Type: "int"}}}

// joinPlan builds the Figure 3 plan: two sources, two time windows,
// a join, and a sink, with cost-model metadata installed.
type joinPlan struct {
	g          *graph.Graph
	vc         *clock.Virtual
	src1, src2 *ops.Source
	w1, w2     *ops.TimeWindow
	join       *ops.Join
	sink       *ops.Sink
}

func newJoinPlan(rate1, rate2 float64, win1, win2 clock.Duration) *joinPlan {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	p := &joinPlan{g: g, vc: vc}
	p.src1 = ops.NewSource(g, "s1", intSchema, rate1, 0)
	p.src2 = ops.NewSource(g, "s2", intSchema, rate2, 0)
	p.w1 = ops.NewTimeWindow(g, "w1", intSchema, win1, 0)
	p.w2 = ops.NewTimeWindow(g, "w2", intSchema, win2, 0)
	p.join = ops.NewJoin(g, "join", intSchema, intSchema,
		func(l, r stream.Tuple) bool { return true }, 0)
	p.sink = ops.NewSink(g, "sink", p.join.Schema(), nil, 0, 0, 0)
	g.Connect(p.src1, p.w1)
	g.Connect(p.src2, p.w2)
	g.Connect(p.w1, p.join)
	g.Connect(p.w2, p.join)
	g.Connect(p.join, p.sink)
	Install(g)
	return p
}

func TestEstCPUFormulaFromDeclaredRates(t *testing.T) {
	p := newJoinPlan(0.1, 0.2, 100, 50)
	sub, err := p.join.Registry().Subscribe(KindEstCPU)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	// estCPU = r1*r2*(v1+v2)*c + r1 + r2 with c=1:
	want := 0.1*0.2*(100+50)*1 + 0.1 + 0.2
	if v, _ := sub.Float(); math.Abs(v-want) > 1e-12 {
		t.Fatalf("estCPU = %v, want %v", v, want)
	}
}

func TestEstCPUInclusionClosure(t *testing.T) {
	p := newJoinPlan(0.1, 0.2, 100, 50)
	sub, _ := p.join.Registry().Subscribe(KindEstCPU)
	defer sub.Unsubscribe()
	// The dependency traversal must have included: window validities
	// and rates, source estimates, and the predicate cost — but not
	// unrelated items (e.g. the join's estimated output rate: an item
	// without a handler is available but unused, Section 2.5).
	for _, reg := range []*core.Registry{p.w1.Registry(), p.w2.Registry()} {
		if !reg.IsIncluded(KindEstValidity) || !reg.IsIncluded(KindEstOutputRate) {
			t.Fatalf("%s: inter-node dependencies not included", reg.ID())
		}
	}
	if !p.src1.Registry().IsIncluded(KindEstOutputRate) {
		t.Fatal("source estimate not included (recursive dependency)")
	}
	if p.join.Registry().IsIncluded(KindEstOutputRate) {
		t.Fatal("estOutputRate included although nobody subscribed")
	}
}

// TestWindowChangePropagates reproduces Section 3.3: the resource
// manager changes a window size; the event triggers the estimated
// element validity, which in turn triggers the join CPU re-estimation
// via an inter-node dependency.
func TestWindowChangePropagates(t *testing.T) {
	p := newJoinPlan(0.1, 0.2, 100, 50)
	sub, _ := p.join.Registry().Subscribe(KindEstCPU)
	defer sub.Unsubscribe()

	p.w1.SetSize(10) // v1: 100 -> 10
	want := 0.1*0.2*(10+50)*1 + 0.1 + 0.2
	if v, _ := sub.Float(); math.Abs(v-want) > 1e-12 {
		t.Fatalf("estCPU after window change = %v, want %v", v, want)
	}
}

func TestEstMemFormula(t *testing.T) {
	p := newJoinPlan(0.5, 0.25, 80, 40)
	sub, err := p.join.Registry().Subscribe(KindEstMem)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	es := float64(intSchema.ElementSize())
	want := 0.5*80*es + 0.25*40*es
	if v, _ := sub.Float(); math.Abs(v-want) > 1e-9 {
		t.Fatalf("estMem = %v, want %v", v, want)
	}
	// Shrinking a window shrinks the estimate proportionally.
	p.w1.SetSize(40)
	want = 0.5*40*es + 0.25*40*es
	if v, _ := sub.Float(); math.Abs(v-want) > 1e-9 {
		t.Fatalf("estMem after shrink = %v, want %v", v, want)
	}
}

// TestDynamicSourceResolution checks Section 4.4.3 in context: with
// rate monitoring already on, the source estimate follows the
// measured rate instead of the declared one.
func TestDynamicSourceResolution(t *testing.T) {
	p := newJoinPlan(0.1, 0.2, 100, 50)
	// Include measured output rate first.
	meas, err := p.src1.Registry().Subscribe(ops.KindOutputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer meas.Unsubscribe()

	est, err := p.src1.Registry().Subscribe(KindEstOutputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer est.Unsubscribe()
	if p.src1.Registry().Refs(ops.KindDeclaredRate) != 0 {
		t.Fatal("declaredRate included although measurement was available")
	}

	// Drive the source: 1 element per 4 units -> measured rate 0.25,
	// declared was 0.1.
	e := engine.New(p.g, p.vc)
	e.Bind(p.src1, stream.NewConstantRate(0, 4, 0))
	e.RunUntil(500)
	if v, _ := est.Float(); v != 0.25 {
		t.Fatalf("estOutputRate = %v, want measured 0.25", v)
	}
}

func TestSourceFallsBackToDeclaredRate(t *testing.T) {
	p := newJoinPlan(0.1, 0.2, 100, 50)
	est, err := p.src1.Registry().Subscribe(KindEstOutputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer est.Unsubscribe()
	if v, _ := est.Float(); v != 0.1 {
		t.Fatalf("estOutputRate = %v, want declared 0.1", v)
	}
	if p.src1.Registry().IsIncluded(ops.KindOutputRate) {
		t.Fatal("measured rate included although not requested")
	}
}

func TestFilterRateScaling(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "s", intSchema, 0.4, 100)
	f := ops.NewFilter(g, "f", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%2 == 0 }, 100)
	sink := ops.NewSink(g, "k", intSchema, nil, 0, 0, 0)
	g.Connect(src, f)
	g.Connect(f, sink)
	Install(g)

	sub, err := f.Registry().Subscribe(KindEstOutputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	// Drive: rate 0.4 declared; selectivity measures 0.5.
	e := engine.New(g, vc)
	e.Bind(src, stream.NewConstantRate(0, 5, 0))
	e.RunUntil(1000)
	if v, _ := sub.Float(); math.Abs(v-0.4*0.5) > 1e-12 {
		t.Fatalf("filter estOutputRate = %v, want 0.2", v)
	}
}

func TestSamplerRateScaling(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "s", intSchema, 1.0, 0)
	sm := ops.NewSampler(g, "sm", intSchema, 0.25, 1, 0)
	sink := ops.NewSink(g, "k", intSchema, nil, 0, 0, 0)
	g.Connect(src, sm)
	g.Connect(sm, sink)
	Install(g)
	sub, err := sm.Registry().Subscribe(KindEstOutputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if v, _ := sub.Float(); v != 0.75 {
		t.Fatalf("sampler estOutputRate = %v, want 0.75", v)
	}
	sm.SetDropProbability(0.5)
	if v, _ := sub.Float(); v != 0.5 {
		t.Fatalf("sampler estOutputRate after change = %v, want 0.5", v)
	}
}

// TestEstimateTracksMeasurement runs the full Figure 3 scenario and
// compares the estimated CPU usage against the measured one.
func TestEstimateTracksMeasurement(t *testing.T) {
	p := newJoinPlan(0.1, 0.1, 50, 50)
	est, _ := p.join.Registry().Subscribe(KindEstCPU)
	defer est.Unsubscribe()
	meas, _ := p.join.Registry().Subscribe(ops.KindMeasuredCPU)
	defer meas.Unsubscribe()

	e := engine.New(p.g, p.vc)
	e.Bind(p.src1, stream.NewConstantRate(0, 10, 0))
	e.Bind(p.src2, stream.NewConstantRate(5, 10, 0))
	e.RunUntil(2000)

	ev, _ := est.Float()
	mv, _ := meas.Float()
	if ev <= 0 || mv <= 0 {
		t.Fatalf("estimates missing: est %v meas %v", ev, mv)
	}
	if ratio := ev / mv; ratio < 0.5 || ratio > 2 {
		t.Fatalf("estimated CPU %v vs measured %v (ratio %.2f) — model should be within 2x", ev, mv, ratio)
	}
}

func TestInstallNodeUnsupported(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	type bare struct{ *graph.Base }
	n := &bare{g.NewBase("bare", graph.OperatorNode)}
	g.Register(n)
	Install(g)
	if got := n.Registry().Available(); len(got) != 0 {
		t.Fatalf("Install defined %v on an unsupported node type", got)
	}
}
