package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// The benchmark plane: regs registries, each a chain of chainLen
// codec-backed triggered items (c0 = the registry's index, ck = c(k-1)+1)
// with its tail and one middle item subscribed — the shape of the
// repository benchmark's durable-restart workload (10,000 x 10 there).

const (
	chainLen = 10
	chainMid = 4
)

func chainKind(k int) core.Kind { return core.Kind("c" + strconv.Itoa(k)) }

func init() {
	RegisterCodec("test.chain", func(args string) (*core.Definition, error) {
		a, b, _ := strings.Cut(args, ",")
		idx, err1 := strconv.Atoi(a)
		k, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil || k < 0 || k >= chainLen {
			return nil, fmt.Errorf("bad chain args %q", args)
		}
		def := &core.Definition{Kind: chainKind(k)}
		if k == 0 {
			def.Build = func(*core.BuildContext) (core.Handler, error) {
				return core.NewTriggered(func(clock.Time) (core.Value, error) { return float64(idx), nil }), nil
			}
			return def, nil
		}
		def.Deps = []core.DepRef{core.Dep(core.Self(), chainKind(k-1))}
		def.Build = func(ctx *core.BuildContext) (core.Handler, error) {
			prev := ctx.DepGroup(0)[0]
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				f, err := prev.Float()
				return f + 1, err
			}), nil
		}
		return def, nil
	})
}

// chainEnv is a fresh process image: a breaker-armed env and n bare
// registries, with the chain definitions registered when define is set
// and left to the codec otherwise.
func chainEnv(tb testing.TB, n int, define bool) (*core.Env, []*core.Registry) {
	tb.Helper()
	env := core.NewEnv(clock.NewVirtual(), core.WithBreaker(core.BreakerPolicy{}))
	regs := make([]*core.Registry, n)
	for i := range regs {
		regs[i] = env.NewRegistry(fmt.Sprintf("d%05d", i))
		for k := 0; define && k < chainLen; k++ {
			def, err := buildDef("test.chain", fmt.Sprintf("%d,%d", i, k))
			if err != nil {
				tb.Fatal(err)
			}
			regs[i].MustDefine(def)
		}
	}
	return env, regs
}

// chainPlane opens a plane over n chain registries in dir and subscribes
// the tail and the middle item of each.
func chainPlane(tb testing.TB, dir string, n int) (*Plane, []*core.Registry) {
	tb.Helper()
	env, regs := chainEnv(tb, n, true)
	p, _, err := Open(env, dir, Options{Sync: SyncNone}, regs...)
	if err != nil {
		tb.Fatal(err)
	}
	for _, kind := range []core.Kind{chainKind(chainLen - 1), chainKind(chainMid)} {
		for _, r := range regs {
			if _, err := r.Subscribe(kind); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return p, regs
}

// chainCheckpoint is the checkpoint file of a crashed n-registry chain
// plane, left in dir with its empty WAL segment.
func chainCheckpoint(tb testing.TB, dir string, n int) []byte {
	tb.Helper()
	p, _ := chainPlane(tb, dir, n)
	if err := p.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	p.Abandon()
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.db"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

const benchRegs = 10_000

func BenchmarkCheckpoint100k(b *testing.B) {
	p, _ := chainPlane(b, b.TempDir(), benchRegs)
	defer p.Abandon()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenRecover100k(b *testing.B) {
	dir := b.TempDir()
	chainCheckpoint(b, dir, benchRegs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env, regs := chainEnv(b, benchRegs, false)
		b.StartTimer()
		p, rs, err := Open(env, dir, Options{Sync: SyncNone}, regs...)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Restored != benchRegs*chainLen || rs.Skipped != 0 {
			b.Fatalf("recovery stats %+v", rs)
		}
		p.Abandon()
	}
}

// BenchmarkWALAppend appends one journaled subscribe's record per op
// under each sync policy. Then it ends the segment as a checkpoint's
// rotation does, closed without a flush and removed, and reports the
// removal as rotate-ms: under syncalways every append was fsynced, so
// that is the price of freeing a synced file. The segment holds b.N
// records; -benchtime 10000x is the size of the tail segment of the
// repository benchmark's durable-restart workload.
func BenchmarkWALAppend(b *testing.B) {
	rec := ckptRec{tag: recSub, reg: "d04242", kind: string(chainKind(chainLen - 1)), n: 1}
	for _, bc := range []struct {
		name string
		sync SyncPolicy
	}{{"syncnone", SyncNone}, {"syncalways", SyncAlways}} {
		b.Run(bc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.1.log")
			w, err := openWAL(path, bc.sync)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.append(&rec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(w.bytes)/float64(b.N), "B/record")
			w.f.Close()
			t0 := time.Now()
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(time.Since(t0))/1e6, "rotate-ms")
		})
	}
}

var decodeSink *CheckpointInfo

func BenchmarkDecodeCheckpoint(b *testing.B) {
	raw := chainCheckpoint(b, b.TempDir(), benchRegs)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := DecodeCheckpoint(raw)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = info
	}
}

// TestCheckpointBytesPerItem gates the format's density on the
// benchmark plane. The figure is a count — it repeats to the byte — so
// a format regression fails here without a timing in CI.
func TestCheckpointBytesPerItem(t *testing.T) {
	const regs, ceiling = 1000, 48.0
	raw := chainCheckpoint(t, t.TempDir(), regs)
	_, recs, err := decodeRecs(raw)
	if err != nil {
		t.Fatal(err)
	}
	count := map[byte]int{}
	for _, rec := range recs {
		count[rec.tag]++
	}
	if count[recItem] != regs*chainLen || count[recDefine] != regs*chainLen || count[recSub] != 2*regs || count[recMig] != 0 {
		t.Fatalf("checkpoint holds %v records by tag", count)
	}
	perItem := float64(len(raw)) / float64(regs*chainLen)
	t.Logf("%d bytes for %d items: %.2f B/item", len(raw), regs*chainLen, perItem)
	if perItem > ceiling {
		t.Fatalf("checkpoint is %.2f B/item, ceiling %v", perItem, ceiling)
	}
	if again := chainCheckpoint(t, t.TempDir(), regs); !bytes.Equal(raw, again) {
		t.Fatal("two checkpoints of the same plane differ")
	}
}

// TestWALBytesPerOp gates the journal's density on the same plane: each
// journaled subscribe is one WAL record, and the mean record, frame
// included, is a count like the checkpoint's bytes. The first pass names
// each registry in the segment's string table, the second refers back.
// The ceiling is the figure measured here rounded up to the next byte.
func TestWALBytesPerOp(t *testing.T) {
	const regs, ceiling = 1000, 20.0
	p, rs := chainPlane(t, t.TempDir(), regs)
	defer p.Abandon()
	st := rs[0].Env().Stats()
	recs, n := st.WALRecords.Load(), st.WALBytes.Load()
	if recs != 2*regs {
		t.Fatalf("%d WAL records for %d journaled subscribes", recs, 2*regs)
	}
	perOp := float64(n) / float64(recs)
	t.Logf("%d WAL bytes for %d records: %.2f B/op", n, recs, perOp)
	if perOp > ceiling {
		t.Fatalf("WAL is %.2f B/op, ceiling %v", perOp, ceiling)
	}
}

// TestWALRecordAllocs gates what journaling costs once the segment has
// named a record's registry and kind: nothing. It records the chain
// plane's second subscribe pass again.
func TestWALRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const regs = 1000
	p, rs := chainPlane(t, t.TempDir(), regs)
	defer p.Abandon()
	i, kind := 0, chainKind(chainMid)
	allocs := testing.AllocsPerRun(regs, func() {
		p.Record(core.JournalOp{Op: core.JournalSubscribe, Registry: rs[i%regs].ID(), Kind: kind})
		i++
	})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Record allocates %v objects per op, want 0", allocs)
	}
}

// TestOpenAllocsPerRestoredItem gates what recovery allocates, on the
// same plane at 10,000 items: decode, one Define per record (the shapes
// are interned, so a definition costs its rare block, not a record and a
// Deps clone), the replayed subscriptions' inclusions, each restoring
// its items as it includes them, and the barrier checkpoint. A count,
// like the bytes above; the ceiling is 2 % over the reading of 17.53
// (a build context per built item read 18.33, a separate restore pass
// 22.23, a separate entry and item 23.23, the per-definition records
// 24.1).
func TestOpenAllocsPerRestoredItem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const regs, ceiling = 1000, 17.9
	dir := t.TempDir()
	chainCheckpoint(t, dir, regs)
	env, bare := chainEnv(t, regs, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, rs, err := Open(env, dir, Options{Sync: SyncNone}, bare...)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abandon()
	if rs.Restored != regs*chainLen || rs.Skipped != 0 {
		t.Fatalf("recovery stats %+v", rs)
	}
	perItem := float64(after.Mallocs-before.Mallocs) / float64(rs.Restored)
	t.Logf("%d allocations for %d restored items: %.2f per item", after.Mallocs-before.Mallocs, rs.Restored, perItem)
	if perItem > ceiling {
		t.Fatalf("Open allocates %.2f objects per restored item, ceiling %v", perItem, ceiling)
	}
}

// settledHeap is the live heap after two collections.
func settledHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRecoveredPlaneBytesPerItem gates what a recovered plane holds
// against the same plane subscribed fresh, on the chain plane at 10,000
// items: the settled heap of each, per item, both after one checkpoint
// of their full state (the recovered one's is its barrier). Recovery
// restores a checkpointed item as it includes it, its value the item's
// first publication, so it builds no propagation plan and runs no
// compute. A count, like the bytes above; the ceiling is 2 % over the
// reading of 1.199–1.201 (720 B/item against 600; a separate restore
// pass, which republished every item and announced each registry, read
// 1.587). A 192-B item and a registry that embeds its scope node take
// the same bytes off both planes, so it reads 1.207 (701 against 581).
func TestRecoveredPlaneBytesPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const regs, ceiling = 1000, 1.225
	dir := t.TempDir()
	base := settledHeap()
	p, fresh := chainPlane(t, dir, regs)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	freshBytes := float64(settledHeap()-base) / (regs * chainLen)
	runtime.KeepAlive(fresh)
	p.Abandon()
	p, fresh = nil, nil

	base = settledHeap()
	env, bare := chainEnv(t, regs, false)
	p, rs, err := Open(env, dir, Options{Sync: SyncNone}, bare...)
	if err != nil {
		t.Fatal(err)
	}
	recoveredBytes := float64(settledHeap()-base) / (regs * chainLen)
	defer p.Abandon()
	if rs.Restored != regs*chainLen || rs.Skipped != 0 {
		t.Fatalf("recovery stats %+v", rs)
	}
	if st := env.Stats(); st.PlanCacheMisses.Load() != 0 || st.ComputeCalls.Load() != 0 {
		t.Fatalf("Open built %d propagation plans and ran %d computes, want 0 and 0",
			st.PlanCacheMisses.Load(), st.ComputeCalls.Load())
	}
	ratio := recoveredBytes / freshBytes
	t.Logf("recovered %.0f B/item, fresh %.0f B/item: %.3f", recoveredBytes, freshBytes, ratio)
	if ratio > ceiling {
		t.Fatalf("a recovered plane holds %.3f times the bytes per item of a fresh one, ceiling %v", ratio, ceiling)
	}
}
