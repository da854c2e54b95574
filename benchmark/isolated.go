package main

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ring"
	"repro/internal/watch"
)

// Isolated calls: single-layer costs measured on their own, with the
// shape the workloads give them. They stand in for spans the benchmark
// cannot record from outside (the inside of Advance, of the mux
// stream), and run on traced runs only.

// nsPer times reps calls of fn, each covering n operations, and
// returns the median ns per operation.
func nsPer(reps, n int, fn func()) float64 {
	per := make([]float64, reps)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// measureClock times the bucketed scheduler with propagate-saturate's
// shape: tasks armed on one deadline, fired by one Advance into a
// dispatch that does nothing.
func measureClock(tasks int) map[string]float64 {
	vc := clock.NewVirtual()
	ts := make([]*clock.Task, tasks)
	for i := range ts {
		ts[i] = &clock.Task{}
	}
	s := clock.NewScheduler(vc, func(clock.Time, []*clock.Task) {})
	buckets := 0
	perTask := nsPer(50, tasks, func() {
		when := vc.Now().Add(rateWindow)
		for _, t := range ts {
			s.At(when, t)
		}
		buckets = s.PendingBuckets()
		vc.Advance(rateWindow)
	})
	idle := clock.NewVirtual()
	return map[string]float64{
		"clock.sched_ns_per_task":    perTask,
		"clock.buckets_per_boundary": float64(buckets),
		"clock.advance_idle_ns": nsPer(50, 100, func() {
			for i := 0; i < 100; i++ {
				idle.Advance(rateWindow)
			}
		}),
	}
}

// measureRing times one push+pop of the FIFO behind the pool updater's
// queue. The workloads use the inline updater, so this is a baseline
// for a later pool-updater workload, not a part of any figure here.
func measureRing() float64 {
	var b ring.Buffer[int]
	for i := 0; i < 64; i++ {
		b.Push(i)
	}
	const n = 1 << 16
	return nsPer(20, n, func() {
		for i := 0; i < n; i++ {
			b.Push(i)
			_ = b.Pop()
		}
	})
}

// measureWatchIsolated times the mux codec, the session poll and the
// hub's ring delivery on batches of the ladder's size.
func measureWatchIsolated(items int) (map[string]float64, error) {
	out := make(map[string]float64)
	evs := make([]watch.MuxEvent, items)
	for i := range evs {
		evs[i] = watch.MuxEvent{ID: uint64(i + 1), Version: uint64(1000 + i), Numeric: true, Value: float64(i) * 1e6}
	}
	var buf []byte
	out["watch.encode_ns_per_event"] = nsPer(200, items, func() { buf = watch.AppendMuxEvents(buf[:0], evs) })
	var derr error
	out["watch.decode_ns_per_event"] = nsPer(200, items, func() {
		if _, _, _, err := watch.DecodeMuxFrame(buf); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return nil, fmt.Errorf("decoding an encoded frame: %w", derr)
	}

	// One item per watcher, as on the ladder: publish a burst, let the
	// hub deliver it into the rings (Barrier), then poll the session.
	env := core.NewEnv(clock.NewVirtual())
	hub := watch.NewHub(env)
	defer hub.Close()
	regs := make([]*core.Registry, items)
	for i := range regs {
		r := env.NewRegistry(ladderRegID("iso", i))
		r.MustDefine(&core.Definition{Kind: "in", Build: floatStatic(0)})
		n := 0.0
		r.MustDefine(&core.Definition{
			Kind: "val",
			Deps: []core.DepRef{core.Dep(core.Self(), "in")},
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewTriggered(func(clock.Time) (core.Value, error) { n++; return n, nil }), nil
			},
		})
		regs[i] = r
	}
	sess := watch.NewSession(watch.NewHubView(hub, env, regs...))
	defer sess.Close()
	for i, r := range regs {
		if err := sess.Add(uint64(i+1), r.ID(), "val", watch.Options{}); err != nil {
			return nil, err
		}
	}
	drain := func() int {
		n := 0
		for {
			if _, ok := sess.Poll(); !ok {
				return n
			}
			n++
		}
	}
	drain()
	const reps = 50
	deliver, poll := make([]float64, reps), make([]float64, reps)
	for rep := 0; rep < reps; rep++ {
		for _, r := range regs {
			r.NotifyChanged("in")
		}
		t0 := time.Now()
		hub.Barrier()
		t1 := time.Now()
		n := drain()
		t2 := time.Now()
		if n == 0 {
			return nil, fmt.Errorf("isolated hub burst delivered nothing")
		}
		deliver[rep] = float64(t1.Sub(t0)) / float64(n)
		poll[rep] = float64(t2.Sub(t1)) / float64(n)
	}
	out["watch.hub_deliver_ns_per_event"] = median(deliver)
	out["watch.session_poll_ns"] = median(poll)
	return out, nil
}
