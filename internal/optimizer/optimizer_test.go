package optimizer

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

// filterChainPlan builds src -> f1 -> f2 -> sink where f1 is costly
// and barely selective (the wrong slot) and f2 cheap and highly
// selective.
func filterChainPlan() (*engine.Engine, *clock.Virtual, *ops.Filter, *ops.Filter, *core.Env) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "src", intSchema, 1, 100)
	f1 := ops.NewFilter(g, "f1", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%10 != 0 }, 100) // sel 0.9
	f1.SetCostPerElement(10)
	f2 := ops.NewFilter(g, "f2", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%10 == 1 }, 100) // sel ~0.1
	f2.SetCostPerElement(1)
	sink := ops.NewSink(g, "sink", intSchema, nil, 0, 0, 100)
	g.Connect(src, f1)
	g.Connect(f1, f2)
	g.Connect(f2, sink)
	e := engine.New(g, vc)
	e.Bind(src, stream.NewConstantRate(0, 1, 0))
	return e, vc, f1, f2, g.Env()
}

func TestFilterChainNeedsTwoFilters(t *testing.T) {
	if _, err := NewFilterChain(); err == nil {
		t.Fatal("accepted empty chain")
	}
}

func TestFilterChainRanks(t *testing.T) {
	e, _, f1, f2, _ := filterChainPlan()
	chain, err := NewFilterChain(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	e.RunUntil(1000) // measure selectivities
	ranks := chain.Ranks()
	// rank(f1) = 10/(1-0.9) = 100; rank(f2) = 1/(1-0.1) ≈ 1.1
	if !(ranks[0] > ranks[1]) {
		t.Fatalf("ranks = %v, want slot 0 ranked worse", ranks)
	}
	if math.Abs(ranks[0]-100) > 5 {
		t.Fatalf("rank[0] = %v, want ~100", ranks[0])
	}
}

func TestFilterChainOptimizeSwapsAndReducesCPU(t *testing.T) {
	e, vc, f1, f2, env := filterChainPlan()
	chain, err := NewFilterChain(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()

	cpu1, _ := f1.Registry().Subscribe(ops.KindMeasuredCPU)
	defer cpu1.Unsubscribe()
	cpu2, _ := f2.Registry().Subscribe(ops.KindMeasuredCPU)
	defer cpu2.Unsubscribe()
	_ = env

	e.RunUntil(1000)
	a1, _ := cpu1.Float()
	a2, _ := cpu2.Float()
	before := a1 + a2 // expected ~ 1*10 + 0.9*1 = 10.9

	if !chain.Optimize() {
		t.Fatal("Optimize did not reorder")
	}
	if chain.Optimize() {
		t.Fatal("second Optimize reordered again immediately")
	}
	if chain.Reorders() != 1 {
		t.Fatalf("Reorders = %d, want 1", chain.Reorders())
	}

	vc.Advance(2000) // let measurements re-converge
	b1, _ := cpu1.Float()
	b2, _ := cpu2.Float()
	after := b1 + b2 // expected ~ 1*1 + 0.1*10 = 2

	if after >= before/3 {
		t.Fatalf("reordering did not pay off: CPU %v -> %v (want ~5x reduction)", before, after)
	}
}

func TestFilterChainPreservesResults(t *testing.T) {
	// The same stream through the original and the optimized order
	// must deliver identical results.
	run := func(optimize bool) []int {
		vc := clock.NewVirtual()
		g := graph.New(core.NewEnv(vc))
		src := ops.NewSource(g, "src", intSchema, 1, 100)
		f1 := ops.NewFilter(g, "f1", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%3 != 0 }, 100)
		f1.SetCostPerElement(10)
		f2 := ops.NewFilter(g, "f2", intSchema, func(tp stream.Tuple) bool { return tp[0].(int)%5 == 0 }, 100)
		var got []int
		sink := ops.NewSink(g, "sink", intSchema, func(el stream.Element) {
			got = append(got, el.Tuple[0].(int))
		}, 0, 0, 100)
		g.Connect(src, f1)
		g.Connect(f1, f2)
		g.Connect(f2, sink)
		e := engine.New(g, vc)
		e.Bind(src, stream.NewConstantRate(0, 1, 0))
		e.RunUntil(500)
		if optimize {
			chain, err := NewFilterChain(f1, f2)
			if err != nil {
				t.Fatal(err)
			}
			defer chain.Close()
			chain.Optimize()
		}
		e.RunUntil(1500)
		return got
	}
	plain := run(false)
	opt := run(true)
	if len(plain) == 0 || len(plain) != len(opt) {
		t.Fatalf("result sizes differ: %d vs %d", len(plain), len(opt))
	}
	for i := range plain {
		if plain[i] != opt[i] {
			t.Fatalf("results diverge at %d: %d vs %d", i, plain[i], opt[i])
		}
	}
}

func TestJoinOrderAdvisorRecommendsCheapest(t *testing.T) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	mkRate := func(name string, v float64) (*core.Registry, *core.Subscription) {
		r := env.NewRegistry(name)
		val := v
		r.MustDefine(&core.Definition{
			Kind:   "estOutputRate",
			Events: []string{"rateChanged"},
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewTriggered(func(clock.Time) (core.Value, error) { return val, nil }), nil
			},
		})
		sub, err := r.Subscribe("estOutputRate")
		if err != nil {
			t.Fatal(err)
		}
		return r, sub
	}
	_, ra := mkRate("A", 0.1)
	_, rb := mkRate("B", 0.1)
	_, rc := mkRate("C", 1.0)
	defer ra.Unsubscribe()
	defer rb.Unsubscribe()
	defer rc.Unsubscribe()

	adv := NewJoinOrderAdvisor(
		JoinInput{Name: "A", Rate: ra, Validity: 100},
		JoinInput{Name: "B", Rate: rb, Validity: 100},
		JoinInput{Name: "C", Rate: rc, Validity: 100},
		0.05, 1,
	)
	recs, err := adv.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recommendations = %d, want 3", len(recs))
	}
	// With C ten times faster, joining the two slow streams first is
	// cheapest.
	if recs[0].Pair != [2]int{0, 1} {
		t.Fatalf("best ordering = %v (%s), want A⋈B first", recs[0].Pair, recs[0].Description)
	}
	for i := 1; i < 3; i++ {
		if recs[i].EstCPU < recs[i-1].EstCPU {
			t.Fatal("recommendations not sorted by cost")
		}
	}
}

// TestJoinOrderAdvisorFlipsWithRates: when a stream's rate changes at
// runtime, the recommendation flips — the re-optimization trigger of
// Section 1.
func TestJoinOrderAdvisorFlipsWithRates(t *testing.T) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	rateB := 0.1
	regB := env.NewRegistry("B")
	regB.MustDefine(&core.Definition{
		Kind:   "estOutputRate",
		Events: []string{"rateChanged"},
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) { return rateB, nil }), nil
		},
	})
	mkStatic := func(name string, v float64) *core.Subscription {
		r := env.NewRegistry(name)
		r.MustDefine(&core.Definition{
			Kind:  "estOutputRate",
			Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(v), nil },
		})
		sub, err := r.Subscribe("estOutputRate")
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	ra := mkStatic("A", 0.1)
	defer ra.Unsubscribe()
	rb, err := regB.Subscribe("estOutputRate")
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Unsubscribe()
	rc := mkStatic("C", 0.5)
	defer rc.Unsubscribe()

	adv := NewJoinOrderAdvisor(
		JoinInput{Name: "A", Rate: ra, Validity: 100},
		JoinInput{Name: "B", Rate: rb, Validity: 100},
		JoinInput{Name: "C", Rate: rc, Validity: 100},
		0.05, 1,
	)
	recs, _ := adv.Recommend()
	if recs[0].Pair != [2]int{0, 1} {
		t.Fatalf("initial best = %s, want (A ⋈ B) ⋈ C", recs[0].Description)
	}

	// B's rate spikes: now A and C are the slow pair.
	rateB = 5
	regB.FireEvent("rateChanged")
	recs, _ = adv.Recommend()
	if recs[0].Pair != [2]int{0, 2} {
		t.Fatalf("after rate change best = %s, want (A ⋈ C) ⋈ B", recs[0].Description)
	}
}

func TestJoinOrderAdvisorErrorsOnDeadSubscription(t *testing.T) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	r := env.NewRegistry("A")
	r.MustDefine(&core.Definition{
		Kind:  "estOutputRate",
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(0.1), nil },
	})
	sub, _ := r.Subscribe("estOutputRate")
	sub.Unsubscribe()
	adv := NewJoinOrderAdvisor(
		JoinInput{Name: "A", Rate: sub, Validity: 100},
		JoinInput{Name: "B", Rate: sub, Validity: 100},
		JoinInput{Name: "C", Rate: sub, Validity: 100},
		0.05, 1,
	)
	if _, err := adv.Recommend(); err == nil {
		t.Fatal("Recommend succeeded on a released subscription")
	}
}
