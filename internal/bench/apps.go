package bench

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/stream"
)

// e8Sample is one time point of the cost-model tracking experiment.
type e8Sample struct {
	// At is the sampling time.
	At clock.Time
	// EstCPU is the cost model's estimated CPU usage.
	EstCPU float64
	// MeasCPU is the measured CPU usage.
	MeasCPU float64
	// WindowSize is the current size of the first window.
	WindowSize clock.Duration
}

// e8Result is the outcome of the Figure 3 / Section 3.3 scenario.
type e8Result struct {
	// Samples is the recorded trajectory.
	Samples []e8Sample
	// ResizeAt is the time the resource manager halved the windows.
	ResizeAt clock.Time
}

// runE8 runs the full Figure 3 cost-model scenario: a sliding-window
// join over two constant-rate streams, with the estimated and measured
// CPU usage recorded every sampleEvery units. Halfway through the run
// the window sizes are halved (the Section 3.3 window adjustment); the
// event-triggered re-estimation must step immediately, and the
// measured value follows as old state expires.
func runE8(rate float64, window clock.Duration, duration clock.Duration, sampleEvery clock.Duration) *e8Result {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	statWindow := sampleEvery
	src1 := ops.NewSource(g, "s1", benchSchema, rate, statWindow)
	src2 := ops.NewSource(g, "s2", benchSchema, rate, statWindow)
	w1 := ops.NewTimeWindow(g, "w1", benchSchema, window, statWindow)
	w2 := ops.NewTimeWindow(g, "w2", benchSchema, window, statWindow)
	join := ops.NewJoin(g, "join", benchSchema, benchSchema,
		func(l, r stream.Tuple) bool { return true }, statWindow)
	sink := ops.NewSink(g, "sink", join.Schema(), nil, 0, 0, statWindow)
	g.Connect(src1, w1)
	g.Connect(src2, w2)
	g.Connect(w1, join)
	g.Connect(w2, join)
	g.Connect(join, sink)
	costmodel.Install(g)

	est, err := join.Registry().Subscribe(costmodel.KindEstCPU)
	if err != nil {
		panic(err)
	}
	defer est.Unsubscribe()
	meas, err := join.Registry().Subscribe(ops.KindMeasuredCPU)
	if err != nil {
		panic(err)
	}
	defer meas.Unsubscribe()

	e := engine.New(g, vc)
	interval := clock.Duration(1 / rate)
	e.Bind(src1, stream.NewConstantRate(0, interval, 0))
	e.Bind(src2, stream.NewConstantRate(clock.Time(interval/2), interval, 0))

	res := &e8Result{ResizeAt: clock.Time(duration / 2)}
	for t := sampleEvery; t <= duration; t += sampleEvery {
		vc.Schedule(clock.Time(t)+1, func(now clock.Time) {
			ev, _ := est.Float()
			mv, _ := meas.Float()
			res.Samples = append(res.Samples, e8Sample{
				At: now, EstCPU: ev, MeasCPU: mv, WindowSize: w1.Size(),
			})
		})
	}
	vc.Schedule(res.ResizeAt, func(clock.Time) {
		w1.SetSize(window / 2)
		w2.SetSize(window / 2)
	})
	e.RunUntil(clock.Time(duration) + 2)
	return res
}

// table renders the trajectory.
func (r *e8Result) table() *Table {
	t := &Table{
		Title:  "E8 / Figure 3 — estimated vs measured join CPU usage under a window change",
		Note:   fmt.Sprintf("windows halved at t=%d: the triggered estimate steps immediately; the measurement follows as state expires", r.ResizeAt),
		Header: []string{"t", "windowSize", "estCPU", "measCPU"},
	}
	for _, s := range r.Samples {
		t.Add(int64(s.At), int64(s.WindowSize), s.EstCPU, s.MeasCPU)
	}
	return t
}

// e10Row is one scheduling-strategy result.
type e10Row struct {
	// Strategy names the scheduler.
	Strategy string
	// PeakQueueBytes is the maximum total queue memory observed.
	PeakQueueBytes int64
	// FinalQueueBytes is the queue memory at the end of the run.
	FinalQueueBytes int64
	// Processed is the number of serviced elements.
	Processed int64
}

// runE10 compares scheduling strategies on queue memory (the Chain
// motivating application [5]): a bursty source feeds two parallel
// two-filter branches — branch A's first filter discards 90% of its
// input, branch B's passes everything — under a tight service budget.
// Chain, informed by live selectivity metadata, spends its budget
// where servicing frees the most queue memory; the oblivious baselines
// waste budget moving branch-B elements from one queue to the next.
func runE10(duration clock.Duration) []e10Row {
	var rows []e10Row
	for _, strategy := range []string{"roundrobin", "fifo", "chain"} {
		vc := clock.NewVirtual()
		g := graph.New(core.NewEnv(vc))
		src := ops.NewSource(g, "src", benchSchema, 0, 50)
		fa1 := ops.NewFilter(g, "fa1", benchSchema,
			func(tp stream.Tuple) bool { return tp[0].(int)%10 == 0 }, 50)
		fa2 := ops.NewFilter(g, "fa2", benchSchema,
			func(stream.Tuple) bool { return true }, 50)
		fb1 := ops.NewFilter(g, "fb1", benchSchema,
			func(stream.Tuple) bool { return true }, 50)
		fb2 := ops.NewFilter(g, "fb2", benchSchema,
			func(stream.Tuple) bool { return true }, 50)
		sinkA := ops.NewSink(g, "sinkA", benchSchema, nil, 0, 0, 50)
		sinkB := ops.NewSink(g, "sinkB", benchSchema, nil, 0, 0, 50)
		g.Connect(src, fa1)
		g.Connect(fa1, fa2)
		g.Connect(fa2, sinkA)
		g.Connect(src, fb1)
		g.Connect(fb1, fb2)
		g.Connect(fb2, sinkB)

		var sc sched.Scheduler
		switch strategy {
		case "roundrobin":
			sc = sched.NewRoundRobin()
		case "fifo":
			sc = sched.NewFIFO()
		case "chain":
			sc = sched.NewChain()
		}
		// Bursts enqueue 2 elements per unit (one per branch); the
		// budget of 2 services per unit cannot also pay branch B's
		// second hop, so the backlog placement is the scheduler's
		// choice.
		e := engine.New(g, vc, engine.WithScheduler(sc, 2, 1))
		e.Bind(src, stream.NewBursty(0, 1, 300, 300, 0))

		var peak int64
		e.Start()
		for t := clock.Time(1); t <= clock.Time(duration); t++ {
			vc.AdvanceTo(t)
			if b := e.QueuedBytes(); b > peak {
				peak = b
			}
		}
		rows = append(rows, e10Row{
			Strategy:        strategy,
			PeakQueueBytes:  peak,
			FinalQueueBytes: e.QueuedBytes(),
			Processed:       e.Processed(),
		})
		sc.Close()
	}
	return rows
}

// e10Table renders the scheduling comparison.
func e10Table(rows []e10Row) *Table {
	t := &Table{
		Title:  "E10 — Chain scheduling vs baselines (queue memory under overload)",
		Note:   "Chain consumes live selectivity metadata and drains the discarding filter first, minimizing queue memory [5]",
		Header: []string{"strategy", "peakQueueBytes", "finalQueueBytes", "processed"},
	}
	for _, r := range rows {
		t.Add(r.Strategy, r.PeakQueueBytes, r.FinalQueueBytes, r.Processed)
	}
	return t
}

// e11Row is one load-shedding result.
type e11Row struct {
	// Shedding reports whether the load shedder was active.
	Shedding bool
	// FinalMeasuredCPU is the join's measured CPU usage at the end.
	FinalMeasuredCPU float64
	// PeakMeasuredCPU is the maximum observed.
	PeakMeasuredCPU float64
	// FinalDropP is the sampler's final drop probability.
	FinalDropP float64
	// Capacity is the CPU bound given to the shedder.
	Capacity float64
}

// runE11 runs an overloaded join with and without a metadata-driven
// load shedder in front of it ([21]): with shedding, the measured CPU
// usage converges to the capacity; without, it stays far above.
func runE11(capacity float64, duration clock.Duration) []e11Row {
	var rows []e11Row
	for _, shedding := range []bool{false, true} {
		vc := clock.NewVirtual()
		g := graph.New(core.NewEnv(vc))
		src1 := ops.NewSource(g, "s1", benchSchema, 0, 100)
		src2 := ops.NewSource(g, "s2", benchSchema, 0, 100)
		sampler := ops.NewSampler(g, "shed", benchSchema, 0, 7, 100)
		w1 := ops.NewTimeWindow(g, "w1", benchSchema, 200, 100)
		w2 := ops.NewTimeWindow(g, "w2", benchSchema, 200, 100)
		join := ops.NewJoin(g, "join", benchSchema, benchSchema,
			func(l, r stream.Tuple) bool { return true }, 100)
		sink := ops.NewSink(g, "sink", join.Schema(), nil, 0, 0, 100)
		g.Connect(src1, sampler)
		g.Connect(sampler, w1)
		g.Connect(src2, w2)
		g.Connect(w1, join)
		g.Connect(w2, join)
		g.Connect(join, sink)

		var shed *resource.LoadShedder
		if shedding {
			var err error
			shed, err = resource.NewLoadShedder(g.Env(), join.Registry(), ops.KindMeasuredCPU, sampler, capacity, 100)
			if err != nil {
				panic(err)
			}
		}
		load, err := join.Registry().Subscribe(ops.KindMeasuredCPU)
		if err != nil {
			panic(err)
		}

		e := engine.New(g, vc)
		e.Bind(src1, stream.NewConstantRate(0, 2, 0))
		e.Bind(src2, stream.NewConstantRate(1, 2, 0))
		e.Start()

		var peak float64
		for t := clock.Time(100); t <= clock.Time(duration); t += 100 {
			vc.AdvanceTo(t + 1)
			if v, _ := load.Float(); v > peak {
				peak = v
			}
		}
		final, _ := load.Float()
		rows = append(rows, e11Row{
			Shedding:         shedding,
			FinalMeasuredCPU: final,
			PeakMeasuredCPU:  peak,
			FinalDropP:       sampler.DropProbability(),
			Capacity:         capacity,
		})
		load.Unsubscribe()
		if shed != nil {
			shed.Close()
		}
	}
	return rows
}

// e11Table renders the shedding comparison.
func e11Table(rows []e11Row) *Table {
	t := &Table{
		Title:  "E11 — load shedding driven by resource-usage metadata",
		Note:   "the shedder raises the drop probability until the measured CPU usage meets the capacity bound [21]",
		Header: []string{"shedding", "capacity", "finalCPU", "peakCPU", "finalDropP"},
	}
	for _, r := range rows {
		t.Add(r.Shedding, r.Capacity, r.FinalMeasuredCPU, r.PeakMeasuredCPU, r.FinalDropP)
	}
	return t
}

// e14Result is the inheritance-override outcome.
type e14Result struct {
	// BaseMemUsage is the memory item value under the inherited
	// definition.
	BaseMemUsage float64
	// OverriddenMemUsage is the value after the subclass redefined
	// the item to include its auxiliary structure.
	OverriddenMemUsage float64
	// HandlersBase and HandlersOverridden count handlers created when
	// subscribing under each definition — redefinition must not add
	// steady-state cost.
	HandlersBase       int64
	HandlersOverridden int64
}

// runE14 reproduces the Section 4.4.2 example: an operator provides a
// memory-usage item; a specialized implementation overrides it to
// account for an additional index structure.
func runE14() *e14Result {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	res := &e14Result{}

	// "Super class" node.
	r := env.NewRegistry("op")
	r.MustDefine(&core.Definition{
		Kind:  "stateMem",
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(100.0), nil },
	})
	r.MustDefine(&core.Definition{
		Kind: ops.KindMemUsage,
		Deps: []core.DepRef{core.Dep(core.Self(), "stateMem")},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			h := ctx.Dep(0)
			return core.NewOnDemand(func(clock.Time) (core.Value, error) { return h.Float() }), nil
		},
	})
	before := env.Stats().Snapshot()
	s1, err := r.Subscribe(ops.KindMemUsage)
	if err != nil {
		panic(err)
	}
	res.BaseMemUsage, _ = s1.Float()
	res.HandlersBase = env.Stats().Snapshot().Sub(before).HandlersCreated
	s1.Unsubscribe()

	// "Subclass" redefines memUsage to add its index memory.
	r.MustDefine(&core.Definition{
		Kind:  "indexMem",
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(40.0), nil },
	})
	r.MustDefine(&core.Definition{
		Kind: ops.KindMemUsage,
		Deps: []core.DepRef{core.Dep(core.Self(), "stateMem"), core.Dep(core.Self(), "indexMem")},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			a, b := ctx.Dep(0), ctx.Dep(1)
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				va, err := a.Float()
				if err != nil {
					return nil, err
				}
				vb, err := b.Float()
				if err != nil {
					return nil, err
				}
				return va + vb, nil
			}), nil
		},
	})
	mid := env.Stats().Snapshot()
	s2, err := r.Subscribe(ops.KindMemUsage)
	if err != nil {
		panic(err)
	}
	res.OverriddenMemUsage, _ = s2.Float()
	res.HandlersOverridden = env.Stats().Snapshot().Sub(mid).HandlersCreated
	s2.Unsubscribe()
	return res
}

// table renders the override comparison.
func (r *e14Result) table() *Table {
	t := &Table{
		Title:  "E14 — metadata inheritance and redefinition (Section 4.4.2)",
		Note:   "the subclass overrides memUsage to reflect its auxiliary index; redefinition adds one dependency handler, no steady-state cost",
		Header: []string{"definition", "memUsage", "handlers created"},
	}
	t.Add("inherited", r.BaseMemUsage, r.HandlersBase)
	t.Add("overridden", r.OverriddenMemUsage, r.HandlersOverridden)
	return t
}

// e15Row is one sweep-area module result.
type e15Row struct {
	// Impl is the module implementation type.
	Impl string
	// MemUsage is the join-level memory item (aggregating modules).
	MemUsage float64
	// MeasuredCPU is the join's measured CPU usage.
	MeasuredCPU float64
	// ModuleItems is the number of metadata items included on the
	// module registries.
	ModuleItems int
}

// runE15 exchanges the join's sweep-area modules (list vs hash) and
// shows that the join-level metadata follows the modules (Section
// 4.5): the memory item aggregates whatever modules are installed, and
// the measured CPU reflects the hash areas' cheaper probes.
func runE15(keys int, duration clock.Duration) []e15Row {
	var rows []e15Row
	for _, impl := range []string{"list", "hash"} {
		vc := clock.NewVirtual()
		g := graph.New(core.NewEnv(vc))
		src1 := ops.NewSource(g, "s1", benchSchema, 0, 100)
		src2 := ops.NewSource(g, "s2", benchSchema, 0, 100)
		w1 := ops.NewTimeWindow(g, "w1", benchSchema, 100, 100)
		w2 := ops.NewTimeWindow(g, "w2", benchSchema, 100, 100)
		var opt ops.JoinOption
		if impl == "list" {
			opt = ops.WithListAreas()
		} else {
			opt = ops.WithHashAreas(
				func(tp stream.Tuple) any { return tp[0] },
				func(tp stream.Tuple) any { return tp[0] },
			)
		}
		join := ops.NewJoin(g, "join", benchSchema, benchSchema,
			func(l, r stream.Tuple) bool { return l[0] == r[0] }, 100, opt)
		sink := ops.NewSink(g, "sink", join.Schema(), nil, 0, 0, 100)
		g.Connect(src1, w1)
		g.Connect(src2, w2)
		g.Connect(w1, join)
		g.Connect(w2, join)
		g.Connect(join, sink)

		mem, err := join.Registry().Subscribe(ops.KindMemUsage)
		if err != nil {
			panic(err)
		}
		cpu, err := join.Registry().Subscribe(ops.KindMeasuredCPU)
		if err != nil {
			panic(err)
		}

		keyed := func(i int) stream.Tuple { return stream.Tuple{i % keys} }
		gen1 := stream.NewConstantRate(0, 2, 0)
		gen1.MakeTup = keyed
		gen2 := stream.NewConstantRate(1, 2, 0)
		gen2.MakeTup = keyed

		e := engine.New(g, vc)
		e.Bind(src1, gen1)
		e.Bind(src2, gen2)
		e.RunUntil(clock.Time(duration) + 1)

		mv, _ := mem.Float()
		cv, _ := cpu.Float()
		rows = append(rows, e15Row{
			Impl:        impl,
			MemUsage:    mv,
			MeasuredCPU: cv,
			ModuleItems: len(join.Area(0).Registry().Included()) + len(join.Area(1).Registry().Included()),
		})
		mem.Unsubscribe()
		cpu.Unsubscribe()
	}
	return rows
}

// e15Table renders the module comparison.
func e15Table(rows []e15Row) *Table {
	t := &Table{
		Title:  "E15 — metadata of exchangeable modules (list vs hash sweep areas)",
		Note:   "join-level memUsage aggregates module metadata recursively; hash areas probe fewer candidates, visible in the measured CPU item",
		Header: []string{"module", "memUsage", "measuredCPU", "included module items"},
	}
	for _, r := range rows {
		t.Add(r.Impl, r.MemUsage, r.MeasuredCPU, r.ModuleItems)
	}
	return t
}

// f2Table demonstrates the metadata taxonomy of Figure 2 on a small live
// graph: one item per mechanism, with its kind, mechanism, and current
// value.
func f2Table() *Table {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "src", benchSchema, 0.5, 50)
	f := ops.NewFilter(g, "filter", benchSchema, func(tp stream.Tuple) bool { return tp[0].(int)%2 == 0 }, 50)
	sink := ops.NewSink(g, "sink", benchSchema, nil, 100, 1, 50)
	g.Connect(src, f)
	g.Connect(f, sink)

	e := engine.New(g, vc)
	e.Bind(src, stream.NewConstantRate(0, 2, 0))

	items := []struct {
		reg  *core.Registry
		kind core.Kind
	}{
		{src.Registry(), ops.KindSchema},
		{src.Registry(), ops.KindElementSize},
		{sink.Registry(), ops.KindQoSLatency},
		{f.Registry(), ops.KindCountIn},
		{f.Registry(), ops.KindCountOut},
		{f.Registry(), ops.KindInputRate},
		{f.Registry(), ops.KindSelectivity},
		{f.Registry(), ops.KindAvgInputRate},
	}
	t := &Table{
		Title:  "F2 / Figure 2 — metadata types and maintenance concepts, live",
		Note:   "static items never update; on-demand computes at access; periodic publishes per window; triggered follows its dependencies",
		Header: []string{"node", "item", "mechanism", "value@t=500"},
	}
	var subs []*core.Subscription
	for _, it := range items {
		s, err := it.reg.Subscribe(it.kind)
		if err != nil {
			panic(err)
		}
		subs = append(subs, s)
	}
	e.RunUntil(500)
	for i, it := range items {
		v, err := subs[i].Value()
		cell := fmt.Sprint(v)
		if err != nil {
			cell = "err: " + err.Error()
		}
		if sc, ok := v.(stream.Schema); ok {
			cell = sc.Name
		}
		mech, _ := it.reg.Mechanism(it.kind)
		t.Add(it.reg.ID(), string(it.kind), mech.String(), cell)
	}
	for _, s := range subs {
		s.Unsubscribe()
	}
	return t
}
