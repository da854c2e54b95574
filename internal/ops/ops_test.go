package ops

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

var intSchema = stream.Schema{Name: "ints", Fields: []stream.Field{{Name: "v", Type: "int"}}}

func newTestGraph() (*graph.Graph, *clock.Virtual) {
	vc := clock.NewVirtual()
	return graph.New(core.NewEnv(vc)), vc
}

func el(v int, ts clock.Time) stream.Element {
	return stream.NewElement(stream.Tuple{v}, ts)
}

func TestSourceEmitCountsAndDeclaredRate(t *testing.T) {
	g, _ := newTestGraph()
	s := NewSource(g, "src", intSchema, 0.1, 0)
	sub, err := s.Registry().Subscribe(KindCountOut)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	for i := 0; i < 5; i++ {
		out := s.Emit(el(i, clock.Time(i)))
		if out.Tuple[0] != i {
			t.Fatal("Emit altered the element")
		}
	}
	if v, _ := sub.Float(); v != 5 {
		t.Fatalf("countOut = %v, want 5", v)
	}
	dr, _ := s.Registry().Subscribe(KindDeclaredRate)
	defer dr.Unsubscribe()
	if v, _ := dr.Float(); v != 0.1 {
		t.Fatalf("declaredRate = %v, want 0.1", v)
	}
}

func TestFilterPredicate(t *testing.T) {
	g, _ := newTestGraph()
	f := NewFilter(g, "f", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%2 == 0 }, 0)
	var out []stream.Element
	for i := 0; i < 10; i++ {
		out = append(out, f.Process(el(i, clock.Time(i)), 0)...)
	}
	if len(out) != 5 {
		t.Fatalf("filter passed %d elements, want 5", len(out))
	}
	for _, e := range out {
		if e.Tuple[0].(int)%2 != 0 {
			t.Fatalf("filter passed odd element %v", e)
		}
	}
}

func TestFilterSelectivityMetadata(t *testing.T) {
	g, vc := newTestGraph()
	f := NewFilter(g, "f", intSchema, func(tp stream.Tuple) bool { return tp[0].(int) < 25 }, 100)
	sub, err := f.Registry().Subscribe(KindSelectivity)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	// 100 elements in window [0,100): 25 pass -> selectivity 0.25.
	for i := 0; i < 100; i++ {
		i := i
		vc.Schedule(clock.Time(i), func(now clock.Time) {
			f.Process(el(i, now), 0)
		})
	}
	vc.Advance(100)
	if v, _ := sub.Float(); v != 0.25 {
		t.Fatalf("selectivity = %v, want 0.25", v)
	}
}

func TestMapTransforms(t *testing.T) {
	g, _ := newTestGraph()
	m := NewMap(g, "m", intSchema, func(tp stream.Tuple) stream.Tuple {
		return stream.Tuple{tp[0].(int) * 10}
	}, 0)
	out := m.Process(el(3, 7), 0)
	if len(out) != 1 || out[0].Tuple[0] != 30 {
		t.Fatalf("map output = %v", out)
	}
	if out[0].TS != 7 {
		t.Fatal("map altered timestamp")
	}
}

func TestUnionPassesAllPorts(t *testing.T) {
	g, _ := newTestGraph()
	u := NewUnion(g, "u", intSchema, 0)
	a := u.Process(el(1, 1), 0)
	b := u.Process(el(2, 2), 1)
	if len(a) != 1 || len(b) != 1 {
		t.Fatal("union dropped elements")
	}
}

func TestSinkDeliversAndQoS(t *testing.T) {
	g, _ := newTestGraph()
	var got []stream.Element
	s := NewSink(g, "k", intSchema, func(e stream.Element) { got = append(got, e) }, 500, 3, 0)
	s.Process(el(1, 1), 0)
	s.Process(el(2, 2), 0)
	if len(got) != 2 {
		t.Fatalf("sink delivered %d, want 2", len(got))
	}
	q, _ := s.Registry().Subscribe(KindQoSLatency)
	defer q.Unsubscribe()
	if v, _ := q.Float(); v != 500 {
		t.Fatalf("qosLatency = %v, want 500", v)
	}
	p, _ := s.Registry().Subscribe(KindQoSPriority)
	defer p.Unsubscribe()
	if v, _ := p.Float(); v != 3 {
		t.Fatalf("qosPriority = %v, want 3", v)
	}
}

func TestTimeWindowAssignsValidity(t *testing.T) {
	g, _ := newTestGraph()
	w := NewTimeWindow(g, "w", intSchema, 100, 0)
	out := w.Process(el(1, 10), 0)
	if len(out) != 1 || out[0].TS != 10 || out[0].End != 110 {
		t.Fatalf("window output = %v, want validity [10,110)", out)
	}
}

func TestTimeWindowSetSizeFiresEvent(t *testing.T) {
	g, _ := newTestGraph()
	w := NewTimeWindow(g, "w", intSchema, 100, 0)
	r := w.Registry()
	// estValidity is a triggered item over windowSize, refreshed by
	// the window-change event (Figure 3 / Section 3.3).
	r.MustDefine(&core.Definition{
		Kind:   "estValidity",
		Deps:   []core.DepRef{core.Dep(core.Self(), KindWindowSize)},
		Events: []string{EventWindowChanged},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			dep := ctx.Dep(0)
			return core.NewTriggered(func(clock.Time) (core.Value, error) { return dep.Float() }), nil
		},
	})
	sub, err := r.Subscribe("estValidity")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if v, _ := sub.Float(); v != 100 {
		t.Fatalf("estValidity = %v, want 100", v)
	}
	w.SetSize(40)
	if v, _ := sub.Float(); v != 40 {
		t.Fatalf("estValidity = %v, want 40 after SetSize", v)
	}
	if w.Size() != 40 {
		t.Fatal("Size() not updated")
	}
	out := w.Process(el(1, 0), 0)
	if out[0].End != 40 {
		t.Fatalf("element End = %d, want 40", out[0].End)
	}
}

func TestTimeWindowInvalidSizePanics(t *testing.T) {
	g, _ := newTestGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("zero window size did not panic")
		}
	}()
	NewTimeWindow(g, "w", intSchema, 0, 0)
}

func TestCountWindowEmitsWithDelay(t *testing.T) {
	g, _ := newTestGraph()
	w := NewCountWindow(g, "w", intSchema, 3, 0)
	var out []stream.Element
	for i := 0; i < 5; i++ {
		out = append(out, w.Process(el(i, clock.Time(i*10)), 0)...)
	}
	// Elements 0 and 1 expire when elements 3 and 4 arrive.
	if len(out) != 2 {
		t.Fatalf("count window emitted %d, want 2", len(out))
	}
	if out[0].Tuple[0] != 0 || out[0].TS != 0 || out[0].End != 30 {
		t.Fatalf("first emission = %v, want value 0 valid [0,30)", out[0])
	}
	if out[1].Tuple[0] != 1 || out[1].End != 40 {
		t.Fatalf("second emission = %v, want value 1 valid [10,40)", out[1])
	}
}

func TestCountWindowStateSizeMetadata(t *testing.T) {
	g, _ := newTestGraph()
	w := NewCountWindow(g, "w", intSchema, 10, 0)
	sub, _ := w.Registry().Subscribe(KindStateSize)
	defer sub.Unsubscribe()
	for i := 0; i < 4; i++ {
		w.Process(el(i, clock.Time(i)), 0)
	}
	if v, _ := sub.Float(); v != 4 {
		t.Fatalf("stateSize = %v, want 4", v)
	}
}

func TestCountWindowInvalidNPanics(t *testing.T) {
	g, _ := newTestGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("count window n=0 did not panic")
		}
	}()
	NewCountWindow(g, "w", intSchema, 0, 0)
}

func TestSamplerDropsDeterministically(t *testing.T) {
	g, _ := newTestGraph()
	s := NewSampler(g, "s", intSchema, 0.5, 42, 0)
	passed := 0
	for i := 0; i < 1000; i++ {
		if len(s.Process(el(i, clock.Time(i)), 0)) > 0 {
			passed++
		}
	}
	if passed < 400 || passed > 600 {
		t.Fatalf("passed %d of 1000 at p=0.5", passed)
	}
	// Drop counter metadata.
	d, _ := s.Registry().Subscribe(kindCountDropped)
	defer d.Unsubscribe()
	if v, _ := d.Float(); v != 0 {
		// The probe was inactive during the loop above, so it counted
		// nothing — activation-gated monitoring.
		t.Fatalf("countDropped = %v, want 0 (probe was inactive)", v)
	}
	for i := 0; i < 100; i++ {
		s.Process(el(i, clock.Time(i)), 0)
	}
	if v, _ := d.Float(); v == 0 {
		t.Fatal("countDropped stayed 0 while probe active")
	}
}

func TestSamplerSetDropProbabilityClamps(t *testing.T) {
	g, _ := newTestGraph()
	s := NewSampler(g, "s", intSchema, 0, 1, 0)
	s.SetDropProbability(1.5)
	if s.DropProbability() != 1 {
		t.Fatal("not clamped to 1")
	}
	s.SetDropProbability(-0.5)
	if s.DropProbability() != 0 {
		t.Fatal("not clamped to 0")
	}
	if len(s.Process(el(1, 1), 0)) != 1 {
		t.Fatal("p=0 sampler dropped an element")
	}
	s.SetDropProbability(1)
	if len(s.Process(el(1, 1), 0)) != 0 {
		t.Fatal("p=1 sampler passed an element")
	}
}

func TestSamplerInvalidProbabilityPanics(t *testing.T) {
	g, _ := newTestGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid probability did not panic")
		}
	}()
	NewSampler(g, "s", intSchema, 2, 1, 0)
}

func TestInputRateMetadataOnOperator(t *testing.T) {
	g, vc := newTestGraph()
	f := NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 50)
	sub, _ := f.Registry().Subscribe(KindInputRate)
	defer sub.Unsubscribe()
	// 1 element per 10 units -> rate 0.1 (Figure 4's scenario).
	for i := 0; i < 20; i++ {
		i := i
		vc.Schedule(clock.Time(i*10+5), func(now clock.Time) {
			f.Process(el(i, now), 0)
		})
	}
	vc.Advance(200)
	if v, _ := sub.Float(); v != 0.1 {
		t.Fatalf("inputRate = %v, want exactly 0.1", v)
	}
}

func TestAvgInputRateTriggeredByInputRate(t *testing.T) {
	g, vc := newTestGraph()
	f := NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 10)
	sub, err := f.Registry().Subscribe(KindAvgInputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if !f.Registry().IsIncluded(KindInputRate) {
		t.Fatal("avgInputRate did not auto-include inputRate")
	}
	// Window [0,10): 2 elements (rate .2); [10,20): 0 (rate 0).
	vc.Schedule(1, func(now clock.Time) { f.Process(el(1, now), 0) })
	vc.Schedule(2, func(now clock.Time) { f.Process(el(2, now), 0) })
	vc.Advance(20)
	// avg of initial 0, 0.2, 0: 0.2/3... use tolerance
	v, _ := sub.Float()
	want := (0.0 + 0.2 + 0.0) / 3
	if diff := v - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("avgInputRate = %v, want %v", v, want)
	}
}

func TestImplTypeMetadata(t *testing.T) {
	g, _ := newTestGraph()
	f := NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 0)
	sub, _ := f.Registry().Subscribe(KindImplType)
	defer sub.Unsubscribe()
	if v, _ := sub.Value(); v != "filter" {
		t.Fatalf("implType = %v, want filter", v)
	}
}

func TestSchemaAndElementSizeMetadata(t *testing.T) {
	g, _ := newTestGraph()
	f := NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 0)
	ss, _ := f.Registry().Subscribe(KindSchema)
	defer ss.Unsubscribe()
	v, _ := ss.Value()
	if v.(stream.Schema).Name != "ints" {
		t.Fatalf("schema = %v", v)
	}
	es, _ := f.Registry().Subscribe(KindElementSize)
	defer es.Unsubscribe()
	if sz, _ := es.Float(); sz != float64(intSchema.ElementSize()) {
		t.Fatalf("elementSize = %v", sz)
	}
}

func TestMeasuredCPUMetadata(t *testing.T) {
	g, vc := newTestGraph()
	f := NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 100)
	f.SetCostPerElement(5)
	sub, _ := f.Registry().Subscribe(KindMeasuredCPU)
	defer sub.Unsubscribe()
	// 10 elements x 5 units in window [0,100) -> 0.5 units/time.
	for i := 0; i < 10; i++ {
		i := i
		vc.Schedule(clock.Time(i*10+1), func(now clock.Time) { f.Process(el(i, now), 0) })
	}
	vc.Advance(100)
	if v, _ := sub.Float(); v != 0.5 {
		t.Fatalf("measuredCPU = %v, want 0.5", v)
	}
}

func TestFanoutMetadataTracksSubquerySharing(t *testing.T) {
	g, _ := newTestGraph()
	f := NewFilter(g, "shared", intSchema, func(stream.Tuple) bool { return true }, 0)
	sub, err := f.Registry().Subscribe(KindFanout)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if v, _ := sub.Float(); v != 0 {
		t.Fatalf("fanout = %v, want 0 before wiring", v)
	}
	k1 := NewSink(g, "k1", intSchema, nil, 0, 0, 0)
	g.Connect(f, k1)
	if v, _ := sub.Float(); v != 1 {
		t.Fatalf("fanout = %v, want 1", v)
	}
	k2 := NewSink(g, "k2", intSchema, nil, 0, 0, 0)
	g.Connect(f, k2)
	if v, _ := sub.Float(); v != 2 {
		t.Fatalf("fanout = %v, want 2 (reuse by a second query)", v)
	}
}
