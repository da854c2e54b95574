package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/stream"
)

// TestIntegrationFullStack builds a realistic multi-query graph —
// shared subqueries, a window join with the cost model, grouped
// aggregation, load shedding — runs it under metadata monitoring, and
// checks global consistency: element conservation, metadata values
// matching ground truth, and complete cleanup.
func TestIntegrationFullStack(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))

	// Sources: one constant, one bursty.
	src1 := ops.NewSource(g, "s1", intSchema, 0.2, 100)
	src2 := ops.NewSource(g, "s2", intSchema, 0, 100)

	// Query 1: shared even-filter feeding a sink and a window join.
	even := ops.NewFilter(g, "even", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%2 == 0 }, 100)
	g.Connect(src1, even)
	q1 := 0
	sink1 := ops.NewSink(g, "q1", intSchema, func(stream.Element) { q1++ }, 100, 5, 100)
	g.Connect(even, sink1)

	// Query 2: join of the shared subquery with the bursty stream.
	w1 := ops.NewTimeWindow(g, "w1", intSchema, 50, 100)
	w2 := ops.NewTimeWindow(g, "w2", intSchema, 50, 100)
	g.Connect(even, w1)
	g.Connect(src2, w2)
	join := ops.NewJoin(g, "join", intSchema, intSchema,
		func(l, r stream.Tuple) bool { return l[0] == r[0] }, 100)
	g.Connect(w1, join)
	g.Connect(w2, join)
	q2 := 0
	sink2 := ops.NewSink(g, "q2", join.Schema(), func(stream.Element) { q2++ }, 200, 1, 100)
	g.Connect(join, sink2)

	// Query 3: grouped count over the bursty stream.
	w3 := ops.NewTimeWindow(g, "w3", intSchema, 200, 100)
	g.Connect(src2, w3)
	agg := ops.NewGroupAggregate(g, "counts", 0, ops.NewCount(), 100)
	g.Connect(w3, agg)
	sink3 := ops.NewSink(g, "q3", agg.Schema(), nil, 0, 0, 100)
	g.Connect(agg, sink3)

	costmodel.Install(g)

	// Metadata consumers.
	subs := map[string]*core.Subscription{}
	mustSub := func(name string, r *core.Registry, kind core.Kind) {
		s, err := r.Subscribe(kind)
		if err != nil {
			t.Fatalf("subscribe %s: %v", name, err)
		}
		subs[name] = s
	}
	mustSub("evenSel", even.Registry(), ops.KindSelectivity)
	mustSub("evenCountIn", even.Registry(), ops.KindCountIn)
	mustSub("evenCountOut", even.Registry(), ops.KindCountOut)
	mustSub("joinEstCPU", join.Registry(), costmodel.KindEstCPU)
	mustSub("joinMem", join.Registry(), ops.KindMemUsage)
	mustSub("s1Rate", src1.Registry(), ops.KindOutputRate)
	mustSub("q1Latency", sink1.Registry(), ops.KindAvgLatency)

	e := New(g, vc)
	gen1 := stream.NewConstantRate(0, 5, 2000) // rate 0.2, 2000 elements
	e.Bind(src1, gen1)
	e.Bind(src2, stream.NewBursty(0, 2, 50, 150, 1000))
	e.RunUntil(10_000)

	// Element conservation: q1 got exactly the evens.
	if q1 != 1000 {
		t.Fatalf("q1 = %d, want 1000", q1)
	}
	cin, _ := subs["evenCountIn"].Float()
	cout, _ := subs["evenCountOut"].Float()
	if cin != 2000 || cout != 1000 {
		t.Fatalf("filter counts %v/%v, want 2000/1000", cin, cout)
	}
	if sel, _ := subs["evenSel"].Float(); sel != 0.5 {
		t.Fatalf("selectivity = %v, want 0.5", sel)
	}
	if rate, _ := subs["s1Rate"].Float(); rate != 0.2 {
		t.Fatalf("s1 output rate = %v, want 0.2", rate)
	}
	if q2 == 0 {
		t.Fatal("join query produced nothing")
	}
	if v, _ := subs["joinEstCPU"].Float(); v <= 0 {
		t.Fatalf("estCPU = %v, want positive", v)
	}
	if lat, _ := subs["q1Latency"].Float(); lat != 0 {
		t.Fatalf("drain-mode latency = %v, want 0 (same-instant delivery)", lat)
	}

	// Cleanup: every handler goes away, nothing leaks.
	for _, s := range subs {
		s.Unsubscribe()
	}
	stats := g.Env().Stats().Snapshot()
	if stats.HandlersCreated != stats.HandlersRemoved {
		t.Fatalf("handlers leaked: created %d, removed %d",
			stats.HandlersCreated, stats.HandlersRemoved)
	}
	for _, n := range g.Nodes() {
		if len(n.Registry().Included()) != 0 {
			t.Fatalf("%s still has included items", n.Registry().ID())
		}
	}
}

// TestIntegrationConcurrentMetadataChurn advances the engine on one
// goroutine while others subscribe/read/unsubscribe metadata across
// the whole graph. Run with -race.
func TestIntegrationConcurrentMetadataChurn(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "src", intSchema, 0, 50)
	var chainEnd graph.Node = src
	var filters []*ops.Filter
	for i := 0; i < 10; i++ {
		f := ops.NewFilter(g, fmt.Sprintf("f%d", i), intSchema,
			func(stream.Tuple) bool { return true }, 50)
		g.Connect(chainEnd, f)
		filters = append(filters, f)
		chainEnd = f
	}
	g.Connect(chainEnd, ops.NewSink(g, "sink", intSchema, nil, 0, 0, 50))
	costmodel.Install(g)

	e := New(g, vc)
	e.Bind(src, stream.NewConstantRate(0, 1, 0))
	e.Start()

	kinds := []core.Kind{
		ops.KindInputRate, ops.KindSelectivity, ops.KindAvgInputRate,
		ops.KindCountIn, ops.KindMeasuredCPU, costmodel.KindEstOutputRate,
	}
	// Workers perform a bounded number of churn cycles while the main
	// goroutine advances the clock; done signals completion so the
	// run ends deterministically even on a single-CPU host.
	var wg sync.WaitGroup
	const cyclesPerWorker = 150
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < cyclesPerWorker; i++ {
				f := filters[rng.Intn(len(filters))]
				k := kinds[rng.Intn(len(kinds))]
				s, err := f.Registry().Subscribe(k)
				if err != nil {
					t.Errorf("subscribe %s: %v", k, err)
					return
				}
				_, _ = s.Value()
				s.Unsubscribe()
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for step := 0; ; step++ {
		e.RunUntil(clock.Time((step + 1) * 20))
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	for _, f := range filters {
		if n := len(f.Registry().Included()); n != 0 {
			t.Fatalf("%s leaked %d items", f.Name(), n)
		}
	}
	stats := g.Env().Stats().Snapshot()
	if stats.HandlersCreated != stats.HandlersRemoved {
		t.Fatalf("handlers leaked under churn: %d vs %d",
			stats.HandlersCreated, stats.HandlersRemoved)
	}
}
