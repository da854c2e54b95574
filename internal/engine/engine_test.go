package engine

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/stream"
)

var intSchema = stream.Schema{Name: "ints", Fields: []stream.Field{{Name: "v", Type: "int"}}}

// pipeline builds src -> filter(keep even) -> sink and returns the
// parts.
// QueuedElements returns the total number of queued elements.
func (e *Engine) QueuedElements() int {
	n := 0
	for _, q := range e.queues {
		n += q.els.Len()
	}
	return n
}

func pipeline(opts ...Option) (*Engine, *ops.Source, *[]stream.Element) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "src", intSchema, 0, 0)
	f := ops.NewFilter(g, "even", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%2 == 0 }, 0)
	var got []stream.Element
	sink := ops.NewSink(g, "sink", intSchema, func(e stream.Element) { got = append(got, e) }, 0, 0, 0)
	g.Connect(src, f)
	g.Connect(f, sink)
	e := New(g, vc, opts...)
	return e, src, &got
}

func TestDrainModeDeliversEndToEnd(t *testing.T) {
	e, src, got := pipeline()
	e.Bind(src, stream.NewConstantRate(0, 10, 10))
	e.RunUntil(1000) // past the last arrival
	if len(*got) != 5 {
		t.Fatalf("sink received %d elements, want 5 (even values)", len(*got))
	}
	if e.QueuedElements() != 0 {
		t.Fatal("queues not drained")
	}
	if (*got)[0].Tuple[0] != 0 || (*got)[1].Tuple[0] != 2 {
		t.Fatalf("wrong elements: %v", *got)
	}
}

func TestRunUntilPartialProgress(t *testing.T) {
	e, src, got := pipeline()
	e.Bind(src, stream.NewConstantRate(0, 10, 100))
	e.RunUntil(45) // arrivals at 0,10,20,30,40 carry values 0..4
	if len(*got) != 3 {
		t.Fatalf("sink received %d, want 3 (even values 0, 2, 4)", len(*got))
	}
}

func TestElementTimestampsPreserved(t *testing.T) {
	e, src, got := pipeline()
	e.Bind(src, stream.NewConstantRate(5, 10, 4))
	e.RunUntil(1000) // past the last arrival
	if (*got)[0].TS != 5 || (*got)[1].TS != 25 {
		t.Fatalf("timestamps wrong: %v", *got)
	}
}

func TestBudgetModeQueuesBuildUp(t *testing.T) {
	// Arrivals at rate 1/unit, service budget 1 per 2 units: the
	// queue must grow roughly with half the arrivals.
	e, src, _ := pipeline(WithScheduler(sched.NewRoundRobin(), 1, 2))
	e.Bind(src, stream.NewConstantRate(1, 1, 200))
	e.RunUntil(200)
	if q := e.QueuedElements(); q < 50 {
		t.Fatalf("queued = %d, want a backlog under overload", q)
	}
	if e.QueuedBytes() <= 0 {
		t.Fatal("queued bytes not accounted")
	}
}

func TestBudgetModeKeepsUpWhenProvisioned(t *testing.T) {
	// Budget 10 per unit vs arrival rate 1: no backlog.
	e, src, got := pipeline(WithScheduler(sched.NewRoundRobin(), 10, 1))
	e.Bind(src, stream.NewConstantRate(0, 1, 100))
	e.RunUntil(300)
	if q := e.QueuedElements(); q != 0 {
		t.Fatalf("queued = %d, want 0", q)
	}
	if len(*got) != 50 {
		t.Fatalf("sink received %d, want 50", len(*got))
	}
}

func TestProcessedCounter(t *testing.T) {
	e, src, _ := pipeline()
	e.Bind(src, stream.NewConstantRate(0, 1, 10))
	e.RunUntil(1000) // past the last arrival
	// 10 through filter + 5 through sink.
	if got := e.Processed(); got != 15 {
		t.Fatalf("Processed = %d, want 15", got)
	}
}

func TestJoinPipelineEndToEnd(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	left := ops.NewSource(g, "L", intSchema, 0, 0)
	right := ops.NewSource(g, "R", intSchema, 0, 0)
	wl := ops.NewTimeWindow(g, "wl", intSchema, 100, 0)
	wr := ops.NewTimeWindow(g, "wr", intSchema, 100, 0)
	j := ops.NewJoin(g, "join", intSchema, intSchema,
		func(l, r stream.Tuple) bool { return l[0] == r[0] }, 0)
	var results []stream.Element
	sink := ops.NewSink(g, "sink", j.Schema(), func(e stream.Element) { results = append(results, e) }, 0, 0, 0)
	g.Connect(left, wl)
	g.Connect(right, wr)
	g.Connect(wl, j)
	g.Connect(wr, j)
	g.Connect(j, sink)

	e := New(g, vc)
	// Same values on both sides, right shifted by 5 units: every pair
	// within the 100-unit window joins once per side combination.
	e.Bind(left, stream.NewConstantRate(0, 10, 10))
	e.Bind(right, stream.NewConstantRate(5, 10, 10))
	e.RunUntil(1000) // past the last arrival
	// Left i has value i at t=10i valid [10i, 10i+100); right i value
	// i at 10i+5 valid [10i+5, 10i+105): they overlap and match.
	if len(results) != 10 {
		t.Fatalf("join produced %d results, want 10", len(results))
	}
	for _, r := range results {
		if r.Tuple[0] != r.Tuple[1] {
			t.Fatalf("mismatched join result %v", r.Tuple)
		}
	}
}

func TestSharedSubqueryDeliversToBothSinks(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "src", intSchema, 0, 0)
	f := ops.NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 0)
	n1, n2 := 0, 0
	s1 := ops.NewSink(g, "s1", intSchema, func(stream.Element) { n1++ }, 0, 0, 0)
	s2 := ops.NewSink(g, "s2", intSchema, func(stream.Element) { n2++ }, 0, 0, 0)
	g.Connect(src, f)
	g.Connect(f, s1)
	g.Connect(f, s2)
	e := New(g, vc)
	e.Bind(src, stream.NewConstantRate(0, 1, 20))
	e.RunUntil(1000) // past the last arrival
	if n1 != 20 || n2 != 20 {
		t.Fatalf("sinks received %d/%d, want 20/20 (subquery sharing)", n1, n2)
	}
}

func TestMetadataMeasuresLiveWorkload(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "src", intSchema, 0, 50)
	f := ops.NewFilter(g, "f", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%5 == 0 }, 50)
	sink := ops.NewSink(g, "sink", intSchema, nil, 0, 0, 0)
	g.Connect(src, f)
	g.Connect(f, sink)
	e := New(g, vc)
	e.Bind(src, stream.NewConstantRate(0, 5, 0)) // rate 0.2, unbounded

	rate, err := f.Registry().Subscribe(ops.KindInputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer rate.Unsubscribe()
	sel, err := f.Registry().Subscribe(ops.KindSelectivity)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Unsubscribe()

	e.RunUntil(1000)
	if v, _ := rate.Float(); v != 0.2 {
		t.Fatalf("measured inputRate = %v, want 0.2", v)
	}
	// Every 50-unit window sees 10 consecutive values of which exactly
	// 2 are multiples of 5.
	if v, _ := sel.Float(); v != 0.2 {
		t.Fatalf("measured selectivity = %v, want 0.2", v)
	}
}

func TestBindAfterStartPanics(t *testing.T) {
	e, src, _ := pipeline()
	e.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("Bind after Start did not panic")
		}
	}()
	e.Bind(src, stream.NewConstantRate(0, 1, 1))
}

func TestStartTwicePanics(t *testing.T) {
	e, _, _ := pipeline()
	e.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	e.Start()
}

func TestAccessors(t *testing.T) {
	e, _, _ := pipeline()
	if e.Graph() == nil || e.vc == nil {
		t.Fatal("accessors returned nil")
	}
}
