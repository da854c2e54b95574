package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/persist"
)

// durable-restart: persist does the work. One cycle, in a fresh temp
// dir: journaled subscribes -> Plane.Checkpoint -> more journaled
// subscribes (the WAL tail) -> Abandon (crash) -> persist.Open on a
// fresh env -> read every item. The first cycle is set-up; the
// reported figures are medians over the measured cycles, because single
// cycles vary by a fifth. SyncAlways is left out: fsync on a shared
// sandbox measures the host's disk.

const (
	chainLen = 10
	// chainMid is the second externally subscribed item of a registry;
	// its subscribe lands after the checkpoint, in the WAL tail.
	chainMid   = 4
	chainCodec = "benchmark.chain"
	// checkpointsPerCycle full checkpoints are timed per cycle: a single
	// one varies by a fifth with where the collector happens to be.
	checkpointsPerCycle = 3
	// minDurableCycles / maxDurableCycles bound the measured cycles.
	minDurableCycles = 3
	maxDurableCycles = 9
)

func chainKind(k int) core.Kind { return core.Kind("c" + strconv.Itoa(k)) }

// chainDefinition is item k of registry idx's chain: c0 = idx,
// c(k) = c(k-1) + 1. It is codec-backed, so recovery rebuilds it from
// its arguments alone.
func chainDefinition(idx, k int) *core.Definition {
	def := &core.Definition{
		Kind:        chainKind(k),
		Persist:     chainCodec,
		PersistArgs: fmt.Sprintf("%d,%d", idx, k),
	}
	if k == 0 {
		def.Build = func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) { return float64(idx), nil }), nil
		}
		return def
	}
	def.Deps = []core.DepRef{core.Dep(core.Self(), chainKind(k-1))}
	def.Build = func(ctx *core.BuildContext) (core.Handler, error) {
		return core.NewTriggered(sumDeps(ctx, 1)), nil
	}
	return def
}

var chainCodecOnce sync.Once

func registerChainCodec() {
	chainCodecOnce.Do(func() {
		persist.RegisterCodec(chainCodec, func(args string) (*core.Definition, error) {
			a, b, ok := strings.Cut(args, ",")
			idx, err1 := strconv.Atoi(a)
			k, err2 := strconv.Atoi(b)
			if !ok || err1 != nil || err2 != nil || k < 0 || k >= chainLen {
				return nil, fmt.Errorf("bad chain args %q", args)
			}
			return chainDefinition(idx, k), nil
		})
	})
}

// durableEnv is a fresh process image: a breaker-armed env and n
// registries, with the chain definitions registered or left to the
// codec.
func durableEnv(n int, define bool) (*core.Env, []*core.Registry) {
	env := core.NewEnv(clock.NewVirtual(), core.WithBreaker(core.BreakerPolicy{}))
	regs := make([]*core.Registry, n)
	for i := range regs {
		regs[i] = env.NewRegistry(fmt.Sprintf("d%05d", i))
		if define {
			for k := 0; k < chainLen; k++ {
				regs[i].MustDefine(chainDefinition(i, k))
			}
		}
	}
	return env, regs
}

// durableCycle is what one cycle measured.
type durableCycle struct {
	journalNs    float64 // per journaled Subscribe
	plainNs      float64 // per Subscribe on the journal-less twin (traced)
	walBytesOp   float64
	checkpointMs float64
	ckptBytes    float64
	recoveryMs   float64
	decodeMs     float64 // traced
	replayNs     float64 // per WAL record, traced
	replayMs     float64
	restored     int
	skipped      int
	ops          int64
}

// measuredMs is the timed part of the cycle.
func (c durableCycle) measuredMs() float64 {
	return c.journalNs*float64(c.ops)/1e6 + checkpointsPerCycle*c.checkpointMs + c.recoveryMs
}

// subscribeAll subscribes kind on every registry and returns ns per
// call.
func subscribeAll(regs []*core.Registry, kind core.Kind) (float64, error) {
	t0 := time.Now()
	for _, r := range regs {
		if _, err := r.Subscribe(kind); err != nil {
			return 0, fmt.Errorf("subscribe %s/%s: %w", r.ID(), kind, err)
		}
	}
	return float64(time.Since(t0)) / float64(len(regs)), nil
}

func runDurableCycle(res *sliceResult, tr *tracer, dir string, nregs int, cycle int64) (durableCycle, error) {
	var c durableCycle
	n := nregs * chainLen
	opt := persist.Options{Sync: persist.SyncNone}
	root := tr.begin("bench", "cycle", 0, cycle)

	env, regs := durableEnv(nregs, true)
	plane, _, err := persist.Open(env, dir, opt, regs...)
	if err != nil {
		return c, err
	}
	stats := env.Stats()

	// Journaled subscribes, first half: the tail of every chain, a full
	// depth-first inclusion of its ten items.
	id := tr.begin("persist", "journaled_subscribes.tail", root, cycle)
	tailNs, err := subscribeAll(regs, chainKind(chainLen-1))
	tr.end(id, int64(nregs))
	if err != nil {
		return c, err
	}
	walRecs, walBytes := stats.WALRecords.Load(), stats.WALBytes.Load()

	// The same N items are checkpointed checkpointsPerCycle times; the
	// cycle's figure is the median.
	var t0 time.Time
	ckptMs := make([]float64, checkpointsPerCycle)
	for i := range ckptMs {
		id = tr.begin("persist", "Checkpoint", root, cycle)
		t0 = time.Now()
		err = plane.Checkpoint()
		ckptMs[i] = float64(time.Since(t0)) / 1e6
		tr.end(id, int64(n))
		if err != nil {
			return c, fmt.Errorf("checkpoint: %w", err)
		}
	}
	c.checkpointMs = median(ckptMs)
	ckpt, err := os.ReadFile(filepath.Join(dir, "checkpoint.db"))
	if err != nil {
		return c, err
	}
	c.ckptBytes = float64(len(ckpt))

	// Second half: the middle item, a shared-path subscribe that stays
	// in the WAL tail for recovery to replay.
	id = tr.begin("persist", "journaled_subscribes.mid", root, cycle)
	midNs, err := subscribeAll(regs, chainKind(chainMid))
	tr.end(id, int64(nregs))
	if err != nil {
		return c, err
	}
	c.journalNs = (tailNs + midNs) / 2
	c.ops = int64(2 * nregs)
	c.walBytesOp = safeDiv(float64(walBytes), float64(walRecs))
	if perr := plane.Err(); perr != nil {
		return c, fmt.Errorf("journal: %w", perr)
	}
	plane.Abandon() // the crash

	if tr != nil {
		// The journal-less twin: the same subscribes without a plane.
		_, twin := durableEnv(nregs, true)
		a, err := subscribeAll(twin, chainKind(chainLen-1))
		if err != nil {
			return c, err
		}
		b, err := subscribeAll(twin, chainKind(chainMid))
		if err != nil {
			return c, err
		}
		c.plainNs = (a + b) / 2

		// Recovery's invisible insides, measured on the same bytes.
		wals, _ := filepath.Glob(filepath.Join(dir, "wal.*.log"))
		if len(wals) != 1 {
			return c, fmt.Errorf("%d WAL segments after the crash, want 1", len(wals))
		}
		wal, err := os.ReadFile(wals[0])
		if err != nil {
			return c, err
		}
		t0 = time.Now()
		if _, err := persist.DecodeCheckpoint(ckpt); err != nil {
			return c, fmt.Errorf("decode checkpoint: %w", err)
		}
		c.decodeMs = float64(time.Since(t0)) / 1e6
		t0 = time.Now()
		payloads, truncated := persist.ReplayWAL(wal)
		d := time.Since(t0)
		if truncated || len(payloads) != nregs {
			res.fail("WAL tail: %d records (truncated %v), want %d", len(payloads), truncated, nregs)
		}
		c.replayMs = float64(d) / 1e6
		c.replayNs = float64(d) / float64(max(len(payloads), 1))
	}

	// The restart: a fresh env with bare registries; definitions come
	// back through the codec, values from the checkpoint.
	env2, regs2 := durableEnv(nregs, false)
	id = tr.begin("persist", "Open", root, cycle)
	t0 = time.Now()
	plane2, rs, err := persist.Open(env2, dir, opt, regs2...)
	if err != nil {
		return c, fmt.Errorf("recovery: %w", err)
	}
	tr.end(id, int64(n))
	id = tr.begin("core", "Peek", root, cycle)
	for i, r := range regs2 {
		for k := 0; k < chainLen; k++ {
			v, err := r.Peek(chainKind(k))
			if err != nil && !errors.Is(err, core.ErrStale) {
				res.fail("%s/%s after recovery: %v", r.ID(), chainKind(k), err)
				continue
			}
			if f, ferr := core.Float(v); ferr != nil || f != float64(i+k) {
				res.fail("%s/%s recovered %v, checkpointed %d", r.ID(), chainKind(k), v, i+k)
			}
		}
	}
	c.recoveryMs = float64(time.Since(t0)) / 1e6
	tr.end(id, int64(n))
	tr.end(root, 1)
	plane2.Abandon()

	c.restored, c.skipped = rs.Restored, rs.Skipped
	if rs.Restored != n {
		res.fail("recovery restored %d of %d items", rs.Restored, n)
	}
	if rs.Skipped != 0 {
		res.fail("recovery skipped %d ops", rs.Skipped)
	}
	if rs.WALRecords != nregs {
		res.fail("recovery replayed %d WAL records, want %d", rs.WALRecords, nregs)
	}
	return c, nil
}

func runDurableRestart(cfg sliceConfig) (*sliceResult, error) {
	res := newSliceResult("durable-restart")
	registerChainCodec()
	nregs := cfg.sizes.durableRegs
	n := nregs * chainLen
	base, err := os.MkdirTemp(buildDir, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	cycleDir := func(i int) string { return filepath.Join(base, strconv.Itoa(i)) }

	t0 := time.Now()
	first, err := runDurableCycle(res, nil, cycleDir(0), nregs, 0)
	if err != nil {
		return nil, err
	}
	res.setupS = time.Since(t0).Seconds()
	res.setups = 1
	os.RemoveAll(cycleDir(0))
	// Measured cycles: as many as fit the slice's seconds, within bounds.
	var all []durableCycle
	next := first.measuredMs() / 1e3
	for i := 1; i <= maxDurableCycles && (i <= minDurableCycles || res.measuredS+next <= cfg.seconds); i++ {
		c, err := runDurableCycle(res, cfg.tr, cycleDir(i), nregs, int64(i))
		if err != nil {
			return nil, err
		}
		os.RemoveAll(cycleDir(i))
		all = append(all, c)
		next = c.measuredMs() / 1e3
		res.measuredS += next
		res.attempted += c.ops + checkpointsPerCycle + int64(n) // subscribes, checkpoints, recovered reads
	}
	col := func(f func(durableCycle) float64) float64 {
		vs := make([]float64, len(all))
		for i, c := range all {
			vs[i] = f(c)
		}
		return median(vs)
	}
	journalNs := col(func(c durableCycle) float64 { return c.journalNs })
	res.vals["persist.journal_ops_per_s"] = 1e9 / journalNs
	res.vals["persist.checkpoint_ms"] = col(func(c durableCycle) float64 { return c.checkpointMs })
	res.vals["persist.recovery_ms"] = col(func(c durableCycle) float64 { return c.recoveryMs })
	for _, name := range []string{"persist.journal_ops_per_s", "persist.checkpoint_ms", "persist.recovery_ms"} {
		res.samples[name] = int64(len(all))
	}

	ckptBytes := col(func(c durableCycle) float64 { return c.ckptBytes })
	res.vals["persist.wal_bytes_per_op"] = col(func(c durableCycle) float64 { return c.walBytesOp })
	res.vals["persist.checkpoint_bytes_per_item"] = ckptBytes / float64(n)
	res.vals["persist.checkpoint_mb_per_s"] = safeDiv(ckptBytes/1e6, res.vals["persist.checkpoint_ms"]/1e3)
	res.vals["persist.restored_share"] = col(func(c durableCycle) float64 { return float64(c.restored) / float64(n) })
	res.vals["persist.skipped"] = col(func(c durableCycle) float64 { return float64(c.skipped) })
	if cfg.tr != nil {
		res.vals["persist.journal_ns_per_op"] = journalNs - col(func(c durableCycle) float64 { return c.plainNs })
		decode := col(func(c durableCycle) float64 { return c.decodeMs })
		replay := col(func(c durableCycle) float64 { return c.replayMs })
		res.vals["persist.decode_checkpoint_ms"] = decode
		res.vals["persist.replay_ns_per_record"] = col(func(c durableCycle) float64 { return c.replayNs })
		res.vals["persist.replay_ms"] = replay
		res.vals["persist.restore_ms"] = res.vals["persist.recovery_ms"] - decode - replay
	}
	return res, nil
}
