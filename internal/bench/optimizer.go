package bench

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/sched"
	"repro/internal/stream"
)

// e16Result is the adaptive filter-reordering outcome.
type e16Result struct {
	// CPUBefore is the chain's total measured CPU usage (work
	// units/time) before reordering.
	CPUBefore float64
	// CPUAfter is the usage after the optimizer reordered the
	// predicates by rank = cost/(1-selectivity).
	CPUAfter float64
	// RanksBefore are the slot ranks that triggered the reorder.
	RanksBefore []float64
	// Reorders is the number of order changes performed.
	Reorders int
	// ResultsMatch reports that the optimized plan delivered exactly
	// the same result stream as the original.
	ResultsMatch bool
}

// runE16 demonstrates runtime query re-optimization (motivating
// application 3): a filter chain starts in the worst order — an
// expensive, barely selective predicate first — and the optimizer,
// reading live selectivity metadata, reorders the commuting predicates
// to ascending rank.
func runE16(duration clock.Duration) *e16Result {
	run := func(optimize bool) (float64, float64, []float64, int, []int) {
		vc := clock.NewVirtual()
		g := graph.New(core.NewEnv(vc))
		src := ops.NewSource(g, "src", benchSchema, 1, 100)
		f1 := ops.NewFilter(g, "f1", benchSchema,
			func(tp stream.Tuple) bool { return tp[0].(int)%10 != 0 }, 100) // sel 0.9
		f1.SetCostPerElement(10)
		f2 := ops.NewFilter(g, "f2", benchSchema,
			func(tp stream.Tuple) bool { return tp[0].(int)%10 == 1 }, 100) // sel 0.1
		f2.SetCostPerElement(1)
		var results []int
		sink := ops.NewSink(g, "sink", benchSchema, func(el stream.Element) {
			results = append(results, el.Tuple[0].(int))
		}, 0, 0, 100)
		g.Connect(src, f1)
		g.Connect(f1, f2)
		g.Connect(f2, sink)

		cpu1, _ := f1.Registry().Subscribe(ops.KindMeasuredCPU)
		defer cpu1.Unsubscribe()
		cpu2, _ := f2.Registry().Subscribe(ops.KindMeasuredCPU)
		defer cpu2.Unsubscribe()

		// The optimizer subscribes before the run so the selectivity
		// measurements have elapsed windows behind them by the time it
		// decides.
		var chain *optimizer.FilterChain
		if optimize {
			var err error
			chain, err = optimizer.NewFilterChain(f1, f2)
			if err != nil {
				panic(err)
			}
			defer chain.Close()
		}

		e := engine.New(g, vc)
		e.Bind(src, stream.NewConstantRate(0, 1, 0))
		e.RunUntil(clock.Time(duration) / 3)
		a1, _ := cpu1.Float()
		a2, _ := cpu2.Float()
		before := a1 + a2

		var ranks []float64
		reorders := 0
		if optimize {
			ranks = chain.Ranks()
			chain.Optimize()
			reorders = chain.Reorders()
		}
		e.RunUntil(clock.Time(duration))
		b1, _ := cpu1.Float()
		b2, _ := cpu2.Float()
		return before, b1 + b2, ranks, reorders, results
	}

	before, after, ranks, reorders, optimized := run(true)
	_, _, _, _, plain := run(false)
	match := len(plain) == len(optimized)
	if match {
		for i := range plain {
			if plain[i] != optimized[i] {
				match = false
				break
			}
		}
	}
	return &e16Result{
		CPUBefore:    before,
		CPUAfter:     after,
		RanksBefore:  ranks,
		Reorders:     reorders,
		ResultsMatch: match,
	}
}

// table renders the reordering outcome.
func (r *e16Result) table() *Table {
	t := &Table{
		Title:  "E16 — adaptive filter reordering on selectivity metadata (motivating app 3)",
		Note:   "the optimizer moves the cheap, selective predicate first (rank = cost/(1-sel)); the query result is unchanged",
		Header: []string{"quantity", "value"},
	}
	t.Add("chain CPU before (work/time)", r.CPUBefore)
	t.Add("chain CPU after", r.CPUAfter)
	t.Add("improvement", r.CPUBefore/r.CPUAfter)
	if len(r.RanksBefore) == 2 {
		t.Add("slot ranks before", trimFloat(r.RanksBefore[0])+" / "+trimFloat(r.RanksBefore[1]))
	}
	t.Add("reorders", r.Reorders)
	t.Add("results identical", r.ResultsMatch)
	return t
}

// e17Row is one advisor recommendation.
type e17Row struct {
	// Phase labels the workload phase ("initial" / "after B spikes").
	Phase string
	// Plan is the recommended ordering.
	Plan string
	// EstCPU is its cost estimate.
	EstCPU float64
	// Alternatives are the rejected plans with their costs.
	Alternatives []optimizer.Ordering
}

// runE17 demonstrates the join-order advisor: three streams with rates
// (0.1, 0.1, 0.5); the advisor recommends joining the two slow streams
// first. When stream B's rate spikes to 5, the recommendation flips to
// pairing A with C — the re-optimization trigger the paper motivates
// with "changes in stream characteristics, such as stream rates".
func runE17() []e17Row {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	rateB := 0.1
	mk := func(name string, static float64, dynamic bool) *core.Subscription {
		r := env.NewRegistry(name)
		if dynamic {
			r.MustDefine(&core.Definition{
				Kind:   "estOutputRate",
				Events: []string{"rateChanged"},
				Build: func(*core.BuildContext) (core.Handler, error) {
					return core.NewTriggered(func(clock.Time) (core.Value, error) { return rateB, nil }), nil
				},
			})
		} else {
			r.MustDefine(&core.Definition{
				Kind:  "estOutputRate",
				Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(static), nil },
			})
		}
		sub, err := r.Subscribe("estOutputRate")
		if err != nil {
			panic(err)
		}
		return sub
	}
	ra := mk("A", 0.1, false)
	defer ra.Unsubscribe()
	rb := mk("B", 0, true)
	defer rb.Unsubscribe()
	rc := mk("C", 0.5, false)
	defer rc.Unsubscribe()

	adv := optimizer.NewJoinOrderAdvisor(
		optimizer.JoinInput{Name: "A", Rate: ra, Validity: 100},
		optimizer.JoinInput{Name: "B", Rate: rb, Validity: 100},
		optimizer.JoinInput{Name: "C", Rate: rc, Validity: 100},
		0.05, 1,
	)

	var rows []e17Row
	recs, err := adv.Recommend()
	if err != nil {
		panic(err)
	}
	rows = append(rows, e17Row{Phase: "initial (rB=0.1)", Plan: recs[0].Description, EstCPU: recs[0].EstCPU, Alternatives: recs[1:]})

	rateB = 5
	rb.Handle().Registry().FireEvent("rateChanged")
	recs, err = adv.Recommend()
	if err != nil {
		panic(err)
	}
	rows = append(rows, e17Row{Phase: "after spike (rB=5)", Plan: recs[0].Description, EstCPU: recs[0].EstCPU, Alternatives: recs[1:]})
	return rows
}

// e17Table renders the advisor comparison.
func e17Table(rows []e17Row) *Table {
	t := &Table{
		Title:  "E17 — join-order advisor on estimated-rate metadata ([22, 25, 18])",
		Note:   "the cost model scores all orderings from live rate estimates; a rate spike flips the recommendation",
		Header: []string{"phase", "recommended plan", "estCPU", "runner-up", "estCPU"},
	}
	for _, r := range rows {
		ru, rc := "-", 0.0
		if len(r.Alternatives) > 0 {
			ru, rc = r.Alternatives[0].Description, r.Alternatives[0].EstCPU
		}
		t.Add(r.Phase, r.Plan, r.EstCPU, ru, rc)
	}
	return t
}

// e18Row is one scheduling strategy's latency outcome.
type e18Row struct {
	// Strategy names the scheduler.
	Strategy string
	// HiLatency and LoLatency are the measured average delivery
	// latencies of the high- and low-priority query.
	HiLatency float64
	LoLatency float64
}

// runE18 compares QoS-priority scheduling against round-robin on two
// identical queries with priorities 9 and 1 under bursty overload: the
// priority scheduler reads the sinks' query-level qosPriority metadata
// (Figure 1) and delivers the important query with near-immediate
// latency, while round-robin treats both alike.
func runE18(duration clock.Duration) []e18Row {
	var rows []e18Row
	for _, strategy := range []string{"roundrobin", "qos"} {
		vc := clock.NewVirtual()
		g := graph.New(core.NewEnv(vc))
		src := ops.NewSource(g, "src", benchSchema, 0, 200)
		lo := ops.NewFilter(g, "lo", benchSchema, func(stream.Tuple) bool { return true }, 200)
		hi := ops.NewFilter(g, "hi", benchSchema, func(stream.Tuple) bool { return true }, 200)
		loSink := ops.NewSink(g, "loSink", benchSchema, nil, 0, 1, 500)
		hiSink := ops.NewSink(g, "hiSink", benchSchema, nil, 0, 9, 500)
		g.Connect(src, lo)
		g.Connect(src, hi)
		g.Connect(lo, loSink)
		g.Connect(hi, hiSink)

		var sc sched.Scheduler
		if strategy == "qos" {
			sc = sched.NewQoS()
		} else {
			sc = sched.NewRoundRobin()
		}
		e := engine.New(g, vc, engine.WithScheduler(sc, 1, 1))
		e.Bind(src, stream.NewBursty(0, 1, 300, 300, 0))

		loLat, _ := loSink.Registry().Subscribe(ops.KindAvgLatency)
		hiLat, _ := hiSink.Registry().Subscribe(ops.KindAvgLatency)
		e.RunUntil(clock.Time(duration))
		loV, _ := loLat.Float()
		hiV, _ := hiLat.Float()
		rows = append(rows, e18Row{Strategy: strategy, HiLatency: hiV, LoLatency: loV})
		loLat.Unsubscribe()
		hiLat.Unsubscribe()
		sc.Close()
	}
	return rows
}

// e18Table renders the QoS comparison.
func e18Table(rows []e18Row) *Table {
	t := &Table{
		Title:  "E18 — QoS-priority scheduling on query-level metadata",
		Note:   "the qos scheduler reads sink qosPriority items: the important query is served near-immediately under overload",
		Header: []string{"strategy", "hi-priority latency", "lo-priority latency"},
	}
	for _, r := range rows {
		t.Add(r.Strategy, r.HiLatency, r.LoLatency)
	}
	return t
}
