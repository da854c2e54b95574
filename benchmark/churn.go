package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// churn-read-mix: core used differently — structure changes and reads
// beside publications. One writer cycles subscribe -> publish ->
// (migrate) -> unsubscribe over seeded pipelines, half of which are
// permanently held (shared path) and half cold (full depth-first
// inclusion and exclusion). One reader reads over the held
// subscriptions. Every structural operation bumps the plan-cache
// version, so this workload pays what propagate-saturate's warm caches
// hide.

const (
	notifiesPerCycle = 4
	migrateEvery     = 16
	readBatch        = 1024
	// Read mix, in percent: lock-free published values, memoized
	// on-demand, volatile on-demand.
	lockfreeShare = 70
	memoShare     = 20
	// cycleSampleEvery / batchSampleEvery: traced-run sampling.
	cycleSampleEvery = 32
	batchSampleEvery = 64
)

// churnCycle is one generated writer cycle.
type churnCycle struct {
	pipeline int32
	ops      [notifiesPerCycle]int8
}

// churnCycles generates the writer's input.
func churnCycles(seed int64, pipelines, n int) []churnCycle {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]churnCycle, n)
	for i := range cs {
		cs[i].pipeline = int32(rng.Intn(pipelines))
		for j := range cs[i].ops {
			cs[i].ops[j] = int8(rng.Intn(opsPerPipeline))
		}
	}
	return cs
}

// readKind is one class of the reader's mix.
type readKind int8

const (
	readLockfree readKind = iota
	readMemo
	readVolatile
	readKinds
)

// readOp is one generated read: which class, which held subscription.
type readOp struct {
	kind readKind
	sub  int32
}

// readOps generates the reader's input over n subscriptions per class.
func readOps(seed int64, perKind [readKinds]int, n int) []readOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]readOp, n)
	for i := range ops {
		k := readVolatile
		switch p := rng.Intn(100); {
		case p < lockfreeShare:
			k = readLockfree
		case p < lockfreeShare+memoShare:
			k = readMemo
		}
		ops[i] = readOp{kind: k, sub: int32(rng.Intn(perKind[k]))}
	}
	return ops
}

// includedSet renders which items are included, for the before/after
// comparison of the oracle.
func includedSet(regs []*core.Registry) string {
	var b strings.Builder
	for _, r := range regs {
		ks := r.Included()
		if len(ks) == 0 {
			continue
		}
		b.WriteString(r.ID())
		for _, k := range ks {
			b.WriteByte(' ')
			b.WriteString(string(k))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// churnSystem is the built plane with half its pipelines held.
type churnSystem struct {
	pl        *plane
	pipelines []*planePipeline
	held      [readKinds][]*core.Subscription
	ext       map[core.ItemKey]int
}

func buildChurn(pipelines int) (*churnSystem, error) {
	s := &churnSystem{pl: buildPlane(pipelines, true, core.WithMemoizedOnDemand()), ext: make(map[core.ItemKey]int)}
	for _, tn := range s.pl.tenants {
		s.pipelines = append(s.pipelines, tn.pipelines...)
	}
	hold := func(k readKind, r *core.Registry, kind core.Kind) error {
		sub, err := r.Subscribe(kind)
		if err != nil {
			return fmt.Errorf("holding %s/%s: %w", r.ID(), kind, err)
		}
		s.held[k] = append(s.held[k], sub)
		s.ext[core.ItemKey{Registry: r.ID(), Kind: kind}]++
		return nil
	}
	// Even pipelines are permanently subscribed, odd ones cold.
	for i := 0; i < len(s.pipelines); i += 2 {
		p := s.pipelines[i]
		if err := hold(readLockfree, p.reg, "mem_sum"); err != nil {
			return nil, err
		}
		for _, op := range p.ops {
			for _, h := range []struct {
				k    readKind
				kind core.Kind
			}{{readLockfree, "est"}, {readLockfree, "rate"}, {readMemo, "cost"}, {readVolatile, "cost_now"}} {
				if err := hold(h.k, op.reg, h.kind); err != nil {
					return nil, err
				}
			}
		}
	}
	return s, nil
}

func (s *churnSystem) release() {
	for _, subs := range s.held {
		for _, sub := range subs {
			sub.Unsubscribe()
		}
	}
}

func runChurnReadMix(cfg sliceConfig) (*sliceResult, error) {
	res := newSliceResult("churn-read-mix")
	var sys *churnSystem
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if sys != nil {
			sys.release()
		}
		t0 := time.Now()
		var err error
		if sys, err = buildChurn(cfg.sizes.pipelines); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setupS = median(setups)
	res.setups = int64(len(setups))
	defer sys.release()

	env := sys.pl.env
	includedBefore := includedSet(sys.pl.regs)
	cycles := churnCycles(cfg.seed, len(sys.pipelines), 1<<16)
	var perKind [readKinds]int
	for k := range sys.held {
		perKind[k] = len(sys.held[k])
	}
	reads := readOps(cfg.seed+1, perKind, 1<<18)

	phaseNs := int64(cfg.seconds * 1e9)
	nwin, width := splitWindows(phaseNs)
	cycleWin, readWin := newWindowCounter(nwin, width), newWindowCounter(nwin, width)
	var stop atomic.Bool
	before := env.Stats().Snapshot()
	phaseStart := time.Now()

	// The reader: batches of readBatch generated reads, timed per batch.
	var readerDone sync.WaitGroup
	var readCount int64
	var kindNs [readKinds][]float64
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		next := 0
		for batch := int64(0); !stop.Load(); batch++ {
			if cfg.tr != nil && batch%batchSampleEvery == 0 {
				// A traced batch reads class by class, so each class
				// gets its own span and its own ns per read.
				sys.tracedBatch(cfg.tr, res, reads[next:next+readBatch], batch, &kindNs)
			} else {
				for _, op := range reads[next : next+readBatch] {
					if _, err := sys.held[op.kind][op.sub].Value(); err != nil && !errors.Is(err, core.ErrStale) {
						res.fail("read of class %d: %v", op.kind, err)
					}
				}
			}
			if next += readBatch; next+readBatch > len(reads) {
				next = 0
			}
			readCount += readBatch
			readWin.add(int64(time.Since(phaseStart)), readBatch)
		}
	}()

	// The writer.
	var subNs, unsubNs, migNs []float64
	ncycles := int64(0)
	for ; int64(time.Since(phaseStart)) < phaseNs; ncycles++ {
		c := &cycles[ncycles%int64(len(cycles))]
		p := sys.pipelines[c.pipeline]
		tail := p.ops[opsPerPipeline-1].reg
		traced := cfg.tr != nil && ncycles%cycleSampleEvery == 0
		var tr *tracer
		if traced {
			tr = cfg.tr
		}
		root := tr.begin("bench", "cycle", 0, ncycles)

		t0 := time.Now()
		id := tr.begin("core", "Subscribe", root, ncycles)
		est, err := tail.Subscribe("est")
		tr.end(id, 1)
		if err != nil {
			res.fail("subscribe %s/est: %v", tail.ID(), err)
			continue
		}
		if traced {
			subNs = append(subNs, float64(time.Since(t0)))
		}
		id = tr.begin("core", "Subscribe", root, ncycles)
		sum, err := p.reg.Subscribe("mem_sum")
		tr.end(id, 1)
		if err != nil {
			res.fail("subscribe %s/mem_sum: %v", p.reg.ID(), err)
			est.Unsubscribe()
			continue
		}

		id = tr.begin("core", "NotifyChanged", root, ncycles)
		for _, j := range c.ops {
			op := p.ops[j]
			op.in.Add(1)
			op.reg.NotifyChanged("in")
		}
		tr.end(id, notifiesPerCycle)

		if ncycles%migrateEvery == 0 {
			op := p.ops[c.ops[0]].reg
			t0 = time.Now()
			id = tr.begin("core", "Migrate", root, ncycles)
			err1 := op.Migrate("sel", core.PeriodicMechanism, 0)
			err2 := op.Migrate("sel", core.TriggeredMechanism, 0)
			tr.end(id, 2)
			if err1 != nil || err2 != nil {
				res.fail("migrate %s/sel: %v / %v", op.ID(), err1, err2)
			}
			if traced {
				migNs = append(migNs, float64(time.Since(t0))/2)
			}
		}

		t0 = time.Now()
		id = tr.begin("core", "Unsubscribe", root, ncycles)
		sum.Unsubscribe()
		est.Unsubscribe()
		tr.end(id, 2)
		if traced {
			unsubNs = append(unsubNs, float64(time.Since(t0))/2)
		}
		tr.end(root, 1)
		cycleWin.add(int64(time.Since(phaseStart)), 1)
	}
	stop.Store(true)
	readerDone.Wait()
	res.measuredS = time.Since(phaseStart).Seconds()
	delta := env.Stats().Snapshot().Sub(before)

	res.vals["core.churn_ops_per_s"] = median(cycleWin.rates())
	res.vals["core.reads_per_s"] = median(readWin.rates())
	res.samples["core.churn_ops_per_s"] = int64(nwin)
	res.samples["core.reads_per_s"] = int64(nwin)
	res.attempted = ncycles + readCount

	// Oracle: the writer's claims are all released, so inclusion and
	// reference counts are back at the pre-run state.
	if after := includedSet(sys.pl.regs); after != includedBefore {
		res.fail("included set changed over the run (%d -> %d bytes of listing)", len(includedBefore), len(after))
	}
	for _, err := range core.VerifyIntegrity(sys.ext, sys.pl.regs...) {
		res.fail("integrity: %v", err)
	}

	res.vals["core.include_steps_per_subscribe"] = safeDiv(float64(delta.IncludeTraversals), float64(2*ncycles))
	res.vals["core.memo_hit_share"] = safeDiv(float64(delta.MemoHits), float64(delta.MemoHits+delta.MemoMisses))
	if cfg.tr != nil {
		res.vals["core.subscribe_ns"] = median(subNs)
		res.vals["core.unsubscribe_ns"] = median(unsubNs)
		res.vals["core.migrate_ns"] = median(migNs)
		res.samples["core.subscribe_ns"] = int64(len(subNs))
		res.samples["core.migrate_ns"] = int64(len(migNs))
		names := [readKinds]string{"core.read_lockfree_ns", "core.read_memo_ns", "core.read_volatile_ns"}
		for k, name := range names {
			res.vals[name] = median(kindNs[k])
			res.samples[name] = int64(len(kindNs[k]))
		}
		// Allocations of one cold subscribe (full depth-first inclusion
		// of a pipeline), measured alone after the run.
		cold := sys.pipelines[1].ops[opsPerPipeline-1].reg
		const probes = 200
		var mallocs uint64
		for i := 0; i < probes; i++ {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			sub, err := cold.Subscribe("est")
			runtime.ReadMemStats(&b)
			if err != nil {
				res.fail("subscribe %s/est: %v", cold.ID(), err)
				break
			}
			mallocs += b.Mallocs - a.Mallocs
			sub.Unsubscribe()
		}
		res.vals["core.subscribe_allocs_per_op"] = float64(mallocs) / probes
		res.vals["ring.pushpop_ns"] = measureRing()
	}
	return res, nil
}

// tracedBatch runs one batch grouped by class, one span per class.
func (s *churnSystem) tracedBatch(tr *tracer, res *sliceResult, batch []readOp, op int64, kindNs *[readKinds][]float64) {
	sorted := append([]readOp(nil), batch...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].kind < sorted[j].kind })
	root := tr.begin("bench", "read_batch", 0, 1<<40|op)
	names := [readKinds]string{"Value.lockfree", "Value.memo", "Value.volatile"}
	for lo := 0; lo < len(sorted); {
		hi, k := lo, sorted[lo].kind
		for hi < len(sorted) && sorted[hi].kind == k {
			hi++
		}
		id := tr.begin("core", names[k], root, 1<<40|op)
		t0 := time.Now()
		for _, r := range sorted[lo:hi] {
			if _, err := s.held[r.kind][r.sub].Value(); err != nil && !errors.Is(err, core.ErrStale) {
				res.fail("read of class %d: %v", r.kind, err)
			}
		}
		kindNs[k] = append(kindNs[k], float64(time.Since(t0))/float64(hi-lo))
		tr.end(id, int64(hi-lo))
		lo = hi
	}
	tr.end(root, int64(len(batch)))
}
