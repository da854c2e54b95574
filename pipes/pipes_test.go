package pipes

import (
	"math"
	"strings"
	"testing"
)

var intSchema = Schema{Name: "ints", Fields: []Field{{Name: "v", Type: "int"}}}

func TestQuickstartPipeline(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("src", intSchema, NewConstantRate(0, 10, 20), 0.1)
	big := src.Filter("big", func(tp Tuple) bool { return tp[0].(int) >= 10 })
	var got []Element
	big.Sink("out", func(e Element) { got = append(got, e) })
	sys.Run(1000) // past the last arrival
	if len(got) != 10 {
		t.Fatalf("sink got %d elements, want 10", len(got))
	}
}

func TestMetadataSubscriptionThroughFacade(t *testing.T) {
	sys := NewSystem(WithStatWindow(50))
	src := sys.Source("src", intSchema, NewConstantRate(0, 5, 0), 0)
	f := src.Filter("f", func(Tuple) bool { return true })
	f.Sink("out", nil)
	rate, err := f.Subscribe(KindInputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer rate.Unsubscribe()
	sys.Run(500)
	if v, _ := rate.Float(); v != 0.2 {
		t.Fatalf("inputRate = %v, want 0.2", v)
	}
}

func TestJoinThroughFacadeWithCostModel(t *testing.T) {
	sys := NewSystem()
	l := sys.Source("L", intSchema, NewConstantRate(0, 10, 0), 0.1)
	r := sys.Source("R", intSchema, NewConstantRate(5, 10, 0), 0.1)
	lw := l.Window("lw", 100)
	rw := r.Window("rw", 100)
	j := lw.Join(rw, "join", func(a, b Tuple) bool { return a[0] == b[0] })
	matches := 0
	j.Sink("out", func(Element) { matches++ })
	sys.InstallCostModel()

	est, err := j.Subscribe(KindEstCPU)
	if err != nil {
		t.Fatal(err)
	}
	defer est.Unsubscribe()
	want := 0.1*0.1*(100+100)*1 + 0.1 + 0.1
	if v, _ := est.Float(); math.Abs(v-want) > 1e-12 {
		t.Fatalf("estCPU = %v, want %v", v, want)
	}

	sys.Run(1000)
	if matches == 0 {
		t.Fatal("join produced no results")
	}

	// Window change propagates through the cost model.
	lw.SetWindowSize(50)
	want = 0.1*0.1*(50+100)*1 + 0.1 + 0.1
	if v, _ := est.Float(); math.Abs(v-want) > 1e-12 {
		t.Fatalf("estCPU after SetWindowSize = %v, want %v", v, want)
	}
}

func TestAggregateThroughFacade(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("src", intSchema, NewConstantRate(0, 10, 10), 0)
	w := src.Window("w", 30)
	cnt := w.Aggregate("cnt", NewCount())
	var last float64
	cnt.Sink("out", func(e Element) { last = e.Tuple[0].(float64) })
	sys.Run(1000) // past the last arrival
	// With 30-unit validity and 10-unit spacing, 3 elements are live.
	if last != 3 {
		t.Fatalf("final count = %v, want 3", last)
	}
}

func TestGroupAggregateAndUnionFacade(t *testing.T) {
	sys := NewSystem()
	a := sys.Source("a", intSchema, NewConstantRate(0, 10, 5), 0)
	b := sys.Source("b", intSchema, NewConstantRate(5, 10, 5), 0)
	u := a.Union("u", b)
	w := u.Window("w", 1000)
	ga := w.GroupAggregate("g", 0, NewCount())
	seen := map[any]float64{}
	ga.Sink("out", func(e Element) { seen[e.Tuple[0]] = e.Tuple[1].(float64) })
	sys.Run(1000) // past the last arrival
	if len(seen) == 0 {
		t.Fatal("group aggregate produced nothing")
	}
}

func TestShedAndLoadShedderFacade(t *testing.T) {
	sys := NewSystem(WithStatWindow(100))
	src := sys.Source("src", intSchema, NewConstantRate(0, 2, 0), 0)
	shed := src.Shed("shed", 0, 11)
	w := shed.Window("w", 200)
	w2 := sys.Source("src2", intSchema, NewConstantRate(1, 2, 0), 0).Window("w2", 200)
	j := w.Join(w2, "join", func(a, b Tuple) bool { return true })
	j.Sink("out", nil)

	ls, err := sys.NewLoadShedder(j, KindMeasuredCPU, shed, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	sys.Run(8000)
	if ls.Steps() == 0 {
		t.Fatal("shedder did not run")
	}
	if p := shed.Node(); p == nil {
		t.Fatal("node accessor broken")
	}
}

func TestWindowAdaptorFacade(t *testing.T) {
	sys := NewSystem()
	l := sys.Source("L", intSchema, nil, 0.5)
	r := sys.Source("R", intSchema, nil, 0.5)
	lw := l.Window("lw", 100)
	rw := r.Window("rw", 100)
	j := lw.Join(rw, "join", func(a, b Tuple) bool { return true })
	j.Sink("out", nil)
	sys.InstallCostModel()

	a, err := sys.NewWindowAdaptor(j, []*Stream{lw, rw}, 800, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.Adjust() {
		t.Fatal("adaptor did not adjust")
	}
	est, _ := j.Subscribe(KindEstMem)
	defer est.Unsubscribe()
	if v, _ := est.Float(); v > 800*1.01 {
		t.Fatalf("estMem = %v, want <= 800", v)
	}
}

func TestRecorderFacade(t *testing.T) {
	sys := NewSystem(WithStatWindow(10))
	src := sys.Source("src", intSchema, NewConstantRate(0, 1, 0), 0)
	f := src.Filter("f", func(Tuple) bool { return true })
	f.Sink("out", nil)
	rec := sys.NewRecorder(10)
	defer rec.Close()
	if err := rec.Track("rate", f.Metadata(), KindInputRate); err != nil {
		t.Fatal(err)
	}
	sys.Run(100)
	s := rec.Series("rate")
	if len(s.Samples) == 0 {
		t.Fatal("recorder captured nothing")
	}
	if s.Last().Value != 1 {
		t.Fatalf("recorded rate = %v, want 1", s.Last().Value)
	}
}

func TestInventoryFacade(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("src", intSchema, nil, 0)
	src.Sink("out", nil)
	inv := sys.Inventory()
	if !strings.Contains(inv, "src#0") || !strings.Contains(inv, "sink") {
		t.Fatalf("inventory missing nodes:\n%s", inv)
	}
}

func TestSchedulingFacade(t *testing.T) {
	for _, strategy := range []string{"roundrobin", "fifo", "chain"} {
		sys := NewSystem(WithScheduling(strategy, 5, 1))
		src := sys.Source("src", intSchema, NewConstantRate(0, 1, 50), 0)
		src.Filter("f", func(Tuple) bool { return true }).Sink("out", nil)
		sys.Run(200)
		if sys.Engine().Processed() == 0 {
			t.Fatalf("%s: no elements processed", strategy)
		}
	}
}

func TestUnknownSchedulingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy did not panic")
		}
	}()
	WithScheduling("magic", 1, 1)
}

func TestUpdaterPoolOption(t *testing.T) {
	sys := NewSystem(WithUpdaterPool(2, 0), WithStatWindow(10))
	src := sys.Source("src", intSchema, NewConstantRate(0, 1, 0), 0)
	f := src.Filter("f", func(Tuple) bool { return true })
	f.Sink("out", nil)
	rate, err := f.Subscribe(KindInputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer rate.Unsubscribe()
	// One stat window at a time, waiting for the pool in between: the
	// rate compute takes the arrival counter on a pool worker, so a
	// worker still closing window k while the engine runs on through
	// window k+1 would divide both windows' arrivals by one window's
	// length (rate 1.5 or 2, about one run in ten).
	for end := Time(10); end <= 100; end += 10 {
		sys.Run(end)
		sys.Env().Quiesce()
	}
	if v, _ := rate.Float(); v < 0.7 || v > 1.3 {
		t.Fatalf("pooled rate = %v, want ~1", v)
	}
}

func TestCountWindowFacade(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("src", intSchema, NewConstantRate(0, 10, 10), 0)
	cw := src.CountWindow("cw", 3)
	n := 0
	cw.Sink("out", func(Element) { n++ })
	sys.Run(1000) // past the last arrival
	if n != 7 {
		t.Fatalf("count window emitted %d, want 7 (10 arrivals, 3 retained)", n)
	}
}

func TestMapFacade(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("src", intSchema, NewConstantRate(0, 1, 5), 0)
	doubled := src.Map("x2", intSchema, func(tp Tuple) Tuple { return Tuple{tp[0].(int) * 2} })
	var vals []int
	doubled.Sink("out", func(e Element) { vals = append(vals, e.Tuple[0].(int)) })
	sys.Run(1000) // past the last arrival
	if len(vals) != 5 || vals[4] != 8 {
		t.Fatalf("mapped values = %v", vals)
	}
}

func TestSnapshotJSONFacade(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("src", intSchema, NewConstantRate(0, 1, 0), 0)
	f := src.Filter("f", func(Tuple) bool { return true })
	f.Sink("out", nil)
	sub, _ := f.Subscribe(KindCountIn)
	defer sub.Unsubscribe()
	sys.Run(100)
	raw, err := sys.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "countIn") {
		t.Fatalf("snapshot missing countIn:\n%s", raw)
	}
}

func TestFanoutThroughFacade(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("src", intSchema, nil, 0)
	shared := src.Filter("shared", func(Tuple) bool { return true })
	shared.Sink("q1", nil)
	shared.Sink("q2", nil)
	shared.Sink("q3", nil)
	sub, err := shared.Subscribe(KindFanout)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if v, _ := sub.Float(); v != 3 {
		t.Fatalf("fanout = %v, want 3 (reuse frequency)", v)
	}
}

func TestSinkLatencyThroughFacade(t *testing.T) {
	sys := NewSystem(WithStatWindow(100), WithScheduling("fifo", 1, 7))
	src := sys.Source("src", intSchema, NewConstantRate(0, 10, 0), 0)
	f := src.Filter("f", func(Tuple) bool { return true })
	sink := f.Sink("out", nil)
	lat, err := sink.Subscribe(KindAvgLatency)
	if err != nil {
		t.Fatal(err)
	}
	defer lat.Unsubscribe()
	sys.Run(1000)
	// Service ticks every 7 units against 10-unit arrivals: each
	// element waits until the next tick, so the average latency is
	// strictly positive and below one tick period.
	if v, _ := lat.Float(); v <= 0 || v > 7 {
		t.Fatalf("avgLatency = %v, want in (0, 7]", v)
	}
}
