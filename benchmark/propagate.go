package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// propagate-saturate: a closed loop of two publishers over the whole
// plane, no watcher, no journal, inline updater — core and clock do all
// the work. Each round is one virtual-clock advance over a window
// boundary (every `rate` publishes, coalesced dependents follow), then
// each tenant's goroutine announces notifiesPerRound source changes on
// Zipf-chosen operators. The two sections are timed separately.

const (
	notifiesPerRound = 4000
	zipfS            = 1.1
	// singleShare of the slice runs one publisher alone first: the
	// single-threaded baseline behind core.publisher_scaling.
	singleShare = 0.15
	// notifySampleEvery is the sampling of per-call timing on the
	// traced run.
	notifySampleEvery = 64
	// opSeqLen is the length of each tenant's pre-generated operator
	// sequence; the timed loop only indexes it.
	opSeqLen = 1 << 16
)

// zipfOps generates a tenant's operator sequence: Zipf(zipfS) ranks
// mapped through a seeded permutation, so the hot operators are
// scattered over the pipelines.
func zipfOps(seed int64, nops int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nops)
	z := rand.NewZipf(rng, zipfS, 1, uint64(nops-1))
	seq := make([]int32, opSeqLen)
	for i := range seq {
		seq[i] = int32(perm[z.Uint64()])
	}
	return seq
}

// rateSection accumulates (operations, busy time) of one kind of timed
// section per one-second window of the measured phase.
type rateSection struct {
	width int64
	ops   []float64
	busy  []float64 // ns
}

func newRateSection(phaseNs int64) *rateSection {
	n, width := splitWindows(phaseNs)
	return &rateSection{width: width, ops: make([]float64, n), busy: make([]float64, n)}
}

// add files a section that ended at offset t of the phase. Sections
// past the planned end land in the last window.
func (s *rateSection) add(t int64, ops int, busy time.Duration) {
	i := int(t / s.width)
	if i >= len(s.ops) {
		i = len(s.ops) - 1
	}
	s.ops[i] += float64(ops)
	s.busy[i] += float64(busy)
}

// medianRate is the median over non-empty windows of ops per busy
// second.
func (s *rateSection) medianRate() (rate float64, windows int64) {
	var per []float64
	for i := range s.ops {
		if s.busy[i] > 0 {
			per = append(per, s.ops[i]/(s.busy[i]/1e9))
		}
	}
	return median(per), int64(len(per))
}

// publisher is one tenant's load goroutine.
type publisher struct {
	tenant *planeTenant
	seq    []int32
	next   int
	tr     *tracer
	calls  int64
	// sampled per-call durations (traced run).
	callNs []float64
}

// burst announces n source changes.
func (p *publisher) burst(n int, parent int32, op int64) {
	for i := 0; i < n; i++ {
		o := p.tenant.ops[p.seq[p.next]]
		p.next = (p.next + 1) % len(p.seq)
		p.calls++
		o.in.Add(1)
		if p.tr != nil && p.calls%notifySampleEvery == 0 {
			id := p.tr.begin("core", "NotifyChanged", parent, op)
			t0 := time.Now()
			o.reg.NotifyChanged("in")
			p.callNs = append(p.callNs, float64(time.Since(t0)))
			p.tr.end(id, 1)
			continue
		}
		o.reg.NotifyChanged("in")
	}
}

func runPropagateSaturate(cfg sliceConfig) (*sliceResult, error) {
	res := newSliceResult("propagate-saturate")
	var (
		pl     *plane
		subs   []*core.Subscription
		setups []float64
		bytes  float64
	)
	for i := 0; i < max(cfg.setups, 1); i++ {
		for _, s := range subs {
			s.Unsubscribe()
		}
		pl, subs = nil, nil
		heapBefore := settledHeap()
		t0 := time.Now()
		pl = buildPlane(cfg.sizes.pipelines, false)
		var err error
		if subs, err = pl.subscribeAll(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		bytes = float64(settledHeap()-heapBefore) / float64(pl.includedItems())
	}
	res.setupS = median(setups)
	res.setups = int64(len(setups))
	items := pl.includedItems()
	res.vals["plane_bytes_per_item"] = bytes
	res.samples["plane_bytes_per_item"] = int64(items)
	res.vals["core.bytes_per_item"] = bytes

	pubs := make([]*publisher, tenants)
	for t := range pubs {
		pubs[t] = &publisher{tenant: pl.tenants[t], seq: zipfOps(cfg.seed+int64(t), len(pl.tenants[t].ops)), tr: cfg.tr}
	}
	stats := pl.env.Stats()
	periodicItems := len(pl.tenants[0].ops) + len(pl.tenants[1].ops)
	// rateRef mirrors what each operator's `rate` published at the last
	// boundary, for the reference fold.
	rateRef := make([][]float64, tenants)
	for t := range rateRef {
		rateRef[t] = make([]float64, len(pl.tenants[t].ops))
	}
	advance := func() time.Duration {
		t0 := time.Now()
		pl.vclock.Advance(rateWindow)
		d := time.Since(t0)
		for t, tn := range pl.tenants {
			for i, op := range tn.ops {
				rateRef[t][i] = rateOf(op.in.Load())
			}
		}
		return d
	}

	// Phase 1: one publisher alone — the single-threaded baseline.
	phaseStart := time.Now()
	singleNs := int64(cfg.seconds * singleShare * 1e9)
	single := newRateSection(singleNs)
	for round := int64(0); int64(time.Since(phaseStart)) < singleNs; round++ {
		advance()
		t0 := time.Now()
		pubs[0].burst(notifiesPerRound, 0, round)
		single.add(int64(time.Since(phaseStart)), notifiesPerRound, time.Since(t0))
	}
	singleRate, _ := single.medianRate()

	// Phase 2: both publishers, each on its own tenant's scope.
	start := make([]chan int64, tenants)
	var done sync.WaitGroup
	var workers sync.WaitGroup
	for t := range pubs {
		start[t] = make(chan int64)
		workers.Add(1)
		go func(p *publisher, start <-chan int64) {
			defer workers.Done()
			for round := range start {
				root := p.tr.begin("bench", "notify_section", 0, round)
				p.burst(notifiesPerRound, root, round)
				p.tr.end(root, notifiesPerRound)
				done.Done()
			}
		}(pubs[t], start[t])
	}
	phaseStart = time.Now()
	phaseNs := int64(cfg.seconds*1e9) - singleNs
	notify, ticks := newRateSection(phaseNs), newRateSection(phaseNs)
	before := stats.Snapshot()
	var refreshes, notifyCalls int64
	var tickNs []float64
	rounds := int64(0)
	for ; int64(time.Since(phaseStart)) < phaseNs; rounds++ {
		op := 1<<32 | rounds
		id := cfg.tr.begin("clock", "Advance", 0, op)
		d := advance()
		cfg.tr.end(id, int64(periodicItems))
		ticks.add(int64(time.Since(phaseStart)), periodicItems, d)
		tickNs = append(tickNs, float64(d)/float64(periodicItems))

		r0 := stats.TriggeredUpdates.Load()
		done.Add(tenants)
		t0 := time.Now()
		for t := range start {
			start[t] <- op
		}
		done.Wait()
		notify.add(int64(time.Since(phaseStart)), tenants*notifiesPerRound, time.Since(t0))
		refreshes += stats.TriggeredUpdates.Load() - r0
		notifyCalls += tenants * notifiesPerRound
	}
	res.measuredS = time.Since(phaseStart).Seconds() + float64(singleNs)/1e9
	delta := stats.Snapshot().Sub(before)
	for t := range start {
		close(start[t])
	}
	workers.Wait()

	res.vals["core.publications_per_s"], res.samples["core.publications_per_s"] = notify.medianRate()
	res.vals["core.periodic_updates_per_s"], res.samples["core.periodic_updates_per_s"] = ticks.medianRate()
	res.attempted = pubs[0].calls + pubs[1].calls + rounds*int64(periodicItems)
	if got, want := delta.PeriodicUpdates, rounds*int64(periodicItems); got != want {
		res.fail("%d periodic updates over %d rounds, want %d", got, rounds, want)
	}

	res.vals["core.refreshes_per_publication"] = safeDiv(float64(refreshes), float64(notifyCalls))
	res.vals["core.delta_fire_share"] = safeDiv(float64(delta.DeltaFires), float64(delta.DeltaFires+delta.DeltaFallbacks))
	res.vals["core.plan_hit_share"] = safeDiv(float64(delta.PlanCacheHits), float64(delta.PlanCacheHits+delta.PlanCacheMisses))
	res.vals["core.publisher_scaling"] = safeDiv(res.vals["core.publications_per_s"], singleRate)
	if cfg.tr != nil {
		var calls []float64
		for _, p := range pubs {
			calls = append(calls, p.callNs...)
		}
		res.vals["core.notify_ns"] = median(calls)
		res.samples["core.notify_ns"] = int64(len(calls))
		res.vals["core.notify_allocs_per_op"] = allocsPerOp(2000, func() { pubs[0].burst(1, 0, 0) })
		sched := measureClock(periodicItems)
		for k, v := range sched {
			res.vals[k] = v
		}
		res.vals["core.tick_ns_per_item"] = median(tickNs) - sched["clock.sched_ns_per_task"]
		res.samples["core.tick_ns_per_item"] = int64(len(tickNs))
	}

	verifyPlane(res, pl, rateRef)
	for _, err := range core.VerifyIntegrity(map[core.ItemKey]int{
		{Registry: pl.tenants[0].reg.ID(), Kind: "mem_mean"}: 1,
		{Registry: pl.tenants[1].reg.ID(), Kind: "mem_mean"}: 1,
	}, pl.regs...) {
		res.fail("integrity: %v", err)
	}
	for _, s := range subs {
		s.Unsubscribe()
	}
	return res, nil
}

// verifyPlane compares every est, mem_sum and mem_mean with a
// reference fold over the benchmark's own counters. The values are
// integers, so equality is exact.
func verifyPlane(res *sliceResult, pl *plane, rateRef [][]float64) {
	check := func(r *core.Registry, kind core.Kind, want float64) {
		res.attempted++
		v, err := r.Peek(kind)
		if err != nil {
			res.fail("%s/%s: %v", r.ID(), kind, err)
			return
		}
		if got, ferr := core.Float(v); ferr != nil || got != want {
			res.fail("%s/%s = %v, reference fold %v", r.ID(), kind, v, want)
		}
	}
	for t, tn := range pl.tenants {
		var count, total float64
		i := 0
		for _, p := range tn.pipelines {
			var sum, est float64
			for _, op := range p.ops {
				est = float64(op.in.Load()) + rateRef[t][i] + est
				check(op.reg, "est", est)
				sum += est
				i++
			}
			check(p.reg, "mem_sum", sum)
			count++
			total += sum
		}
		check(tn.reg, "mem_mean", total/count)
	}
}

// settledHeap returns HeapAlloc after two collections.
func settledHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// allocsPerOp returns the mean heap allocations of one call of fn,
// measured on this goroutine alone.
func allocsPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
