package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// The test fixture: registry "op" with a codec-backed triggered item per
// index reading a live source cell, so a recovered process observes a
// DIFFERENT live value than the checkpointed one — proving reads after
// recovery serve the persisted last-good, not a silent recompute.

var srcCells [64]atomic.Uint64 // Float64bits per item index

func setSrc(i int, v float64) { srcCells[i].Store(math.Float64bits(v)) }

func init() {
	RegisterCodec("test.cell", func(args string) (*core.Definition, error) {
		i, err := strconv.Atoi(args)
		if err != nil {
			return nil, err
		}
		read := func(clock.Time) (core.Value, error) {
			return math.Float64frombits(srcCells[i].Load()), nil
		}
		return &core.Definition{
			Kind: core.Kind(fmt.Sprintf("cell%d", i)),
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewTriggered(read), nil
			},
			Adapt: &core.AdaptSpec{
				OnDemand:  func(*core.BuildContext) core.ComputeFunc { return read },
				Triggered: func(*core.BuildContext) core.ComputeFunc { return read },
				Periodic: func(*core.BuildContext) core.WindowComputeFunc {
					return func(_, end clock.Time) (core.Value, error) { return read(end) }
				},
				Window: 50,
			},
		}, nil
	})
}

func testEnv(t *testing.T, breaker bool) (*core.Env, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual()
	opts := []core.EnvOption{}
	if breaker {
		opts = append(opts, core.WithBreaker(core.DefaultBreakerPolicy))
	}
	return core.NewEnv(vc, opts...), vc
}

func defineCell(t *testing.T, r *core.Registry, i int) {
	t.Helper()
	def, err := buildDef("test.cell", strconv.Itoa(i))
	if err != nil {
		t.Fatalf("buildDef: %v", err)
	}
	if err := r.Define(def); err != nil {
		t.Fatalf("Define: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var b []byte
	payloads := [][]byte{[]byte("a"), {}, []byte("hello world")}
	for _, p := range payloads {
		b = appendFrame(b, p)
	}
	for i := 0; len(b) > 0; i++ {
		p, n, err := readFrame(b)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(p) != string(payloads[i]) {
			t.Fatalf("frame %d = %q, want %q", i, p, payloads[i])
		}
		b = b[n:]
	}
}

func TestFrameCorruption(t *testing.T) {
	good := appendFrame(nil, []byte("payload"))
	cases := map[string][]byte{
		"short header": good[:4],
		"torn body":    good[:len(good)-2],
		"bit flip":     append(append([]byte{}, good[:frameHeader]...), 'X', 'a', 'y', 'l', 'o', 'a', 'd'),
	}
	for name, b := range cases {
		if _, _, err := readFrame(b); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want errCorrupt", name, err)
		}
	}
}

// sampleWAL has one WAL record of every kind, across two registries.
func sampleWAL() []ckptRec {
	return []ckptRec{
		{tag: recDefine, reg: "op", kind: "cell0", s: "test.cell", b: []byte("0")},
		{tag: recSub, reg: "op", kind: "cell0", n: 1, b: []byte{}},
		{tag: recSub, reg: "sink", kind: "cell0", n: 1, b: []byte{}},
		{tag: recMig, reg: "op", kind: "cell0", n: 50, b: []byte{2}},
		{tag: recUnsub, reg: "op", kind: "cell0", b: []byte{}},
	}
}

// walSegment writes recs through a walWriter and returns the segment.
func walSegment(tb testing.TB, recs []ckptRec) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "wal.1.log")
	w, err := openWAL(path, SyncNone)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range recs {
		if err := w.append(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	w.close()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func TestWALReplayTornTail(t *testing.T) {
	want := sampleWAL()
	raw := walSegment(t, want)
	ps, trunc := ReplayWAL(raw)
	if got, err := decodeWAL("wal.1.log", ps); trunc || err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("clean replay = %+v trunc=%v err=%v, want %+v", got, trunc, err, want)
	}
	// Every possible torn length replays the longest whole prefix, and
	// its records decode with the strings the frames before named.
	var ends []int
	for off := 0; off < len(raw); {
		_, n, err := readFrame(raw[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		ends = append(ends, off)
	}
	for cut, whole, prefix := 0, 0, 0; cut < len(raw); cut++ {
		if cut == ends[whole] {
			prefix, whole = cut, whole+1
		}
		ps, trunc := ReplayWAL(raw[:cut])
		got, err := decodeWAL("wal.1.log", ps)
		if err != nil || !reflect.DeepEqual(got, want[:whole]) {
			t.Fatalf("cut %d: replayed %+v (%v), want the first %d records", cut, got, err, whole)
		}
		if wantTrunc := cut != prefix; trunc != wantTrunc {
			t.Fatalf("cut %d: truncated = %v, want %v", cut, trunc, wantTrunc)
		}
	}
	// A bit flip in the middle stops replay at the damaged record.
	flipped := bytes.Clone(raw)
	flipped[ends[0]+frameHeader] ^= 0x40 // payload byte of record 1
	ps, trunc = ReplayWAL(flipped)
	if len(ps) != 1 || !trunc {
		t.Fatalf("bit-flipped replay = %d recs trunc=%v, want 1 true", len(ps), trunc)
	}
}

// TestWALRecordRoundTrip: every journaled op kind — a define with codec
// args, subscribes, an unsubscribe, a migration with its window — goes
// through Record into the segment as one record and comes back through
// Open as the same op.
func TestWALRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	env1, _ := testEnv(t, true)
	r1 := env1.NewRegistry("op")
	p1, _, err := Open(env1, dir, Options{}, r1)
	if err != nil {
		t.Fatal(err)
	}
	ops := []core.JournalOp{
		{Op: core.JournalDefine, Registry: "op", Kind: "cell7", Codec: "test.cell", CodecArgs: "7"},
		{Op: core.JournalSubscribe, Registry: "op", Kind: "cell7"},
		{Op: core.JournalSubscribe, Registry: "op", Kind: "cell7"},
		{Op: core.JournalUnsubscribe, Registry: "op", Kind: "cell7"},
		{Op: core.JournalMigrate, Registry: "op", Kind: "cell7", To: core.PeriodicMechanism, Window: 40},
	}
	for _, op := range ops {
		p1.Record(op)
	}
	if err := p1.Err(); err != nil {
		t.Fatal(err)
	}
	p1.Abandon()
	raw, err := os.ReadFile(filepath.Join(dir, "wal.1.log"))
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := ReplayWAL(raw)
	recs, err := decodeWAL("wal.1.log", ps)
	want := []ckptRec{
		{tag: recDefine, reg: "op", kind: "cell7", s: "test.cell", b: []byte("7")},
		{tag: recSub, reg: "op", kind: "cell7", n: 1, b: []byte{}},
		{tag: recSub, reg: "op", kind: "cell7", n: 1, b: []byte{}},
		{tag: recUnsub, reg: "op", kind: "cell7", b: []byte{}},
		{tag: recMig, reg: "op", kind: "cell7", n: 40, b: []byte{byte(core.PeriodicMechanism)}},
	}
	if err != nil || !reflect.DeepEqual(recs, want) {
		t.Fatalf("segment records %+v (%v), want %+v", recs, err, want)
	}

	env2, _ := testEnv(t, true)
	r2 := env2.NewRegistry("op")
	p2, rs, err := Open(env2, dir, Options{}, r2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rs.WALRecords != len(ops) || rs.Defined != 1 || rs.Subscribed != 2 || rs.Migrated != 1 || rs.Skipped != 0 {
		t.Fatalf("replay stats %+v", rs)
	}
	if m, _ := r2.Mechanism("cell7"); m != core.PeriodicMechanism {
		t.Fatalf("cell7 mechanism = %v, want periodic", m)
	}
	if w, _ := r2.Window("cell7"); w != 40 {
		t.Fatalf("cell7 window = %d, want 40", w)
	}
	if k, ts := (key{"op", "cell7"}), p2.topo["op"]; len(ts) != 1 || ts[0].subs != 1 || len(p2.held[k]) != 1 {
		t.Fatalf("cell7 holds %d subscriptions (mirror %+v), want 1", len(p2.held[k]), ts)
	}
}

// TestOpenRefusesForeignWAL: a frame whose CRC holds but whose payload
// is not one WAL record — here the JSON record of an earlier build — is
// errCorrupt naming the segment and the record, before any op of the
// segment is applied. Cut inside the same frame it is a torn tail, and
// so are zeros after the last record, which pass the CRC as an empty
// frame.
func TestOpenRefusesForeignWAL(t *testing.T) {
	sub := walSegment(t, []ckptRec{{tag: recSub, reg: "op", kind: "cell0", n: 1}})
	wal := appendFrame(bytes.Clone(sub), []byte(`{"op":2,"reg":"op","kind":"cell0"}`))
	open := func(wal []byte) (*core.Registry, *RecoveryStats, error) {
		t.Helper()
		dir := t.TempDir()
		env0, _ := testEnv(t, true)
		p0, _, err := Open(env0, dir, Options{}, env0.NewRegistry("op"))
		if err != nil {
			t.Fatal(err)
		}
		p0.Abandon()
		if err := os.WriteFile(filepath.Join(dir, "wal.1.log"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		env, _ := testEnv(t, true)
		r := env.NewRegistry("op")
		defineCell(t, r, 0)
		p, rs, err := Open(env, dir, Options{}, r)
		if err == nil {
			p.Abandon()
		}
		return r, rs, err
	}
	r, _, err := open(wal)
	if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "wal.1.log") || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("Open of a segment with a JSON record: %v, want errCorrupt naming wal.1.log, record 1", err)
	}
	t.Log(err)
	if r.IsIncluded("cell0") {
		t.Fatal("the record before the refused one was applied")
	}
	r, rs, err := open(wal[:len(wal)-1])
	if err != nil || rs.WALRecords != 1 || !rs.WALTruncated || !r.IsIncluded("cell0") {
		t.Fatalf("torn tail after one record: %+v, %v", rs, err)
	}
	// A crash can leave the file grown over blocks its data never reached.
	for _, zeros := range []int{4, 8, 4096} {
		r, rs, err := open(append(bytes.Clone(sub), make([]byte, zeros)...))
		if err != nil || rs.WALRecords != 1 || !rs.WALTruncated || !r.IsIncluded("cell0") {
			t.Fatalf("%d zero bytes after one record: %+v, %v", zeros, rs, err)
		}
	}
}

func TestCodecRegistry(t *testing.T) {
	if _, err := buildDef("no.such.codec", ""); err == nil {
		t.Fatal("unknown codec did not error")
	}
	def, err := buildDef("test.cell", "3")
	if err != nil {
		t.Fatal(err)
	}
	if def.Persist != "test.cell" || def.PersistArgs != "3" || def.Kind != "cell3" {
		t.Fatalf("buildDef stamped %q/%q kind %q", def.Persist, def.PersistArgs, def.Kind)
	}
}

// TestSaveRecoverCycle is the full tentpole loop: run, checkpoint,
// crash, recover into degraded mode, warm back to healthy.
func TestSaveRecoverCycle(t *testing.T) {
	dir := t.TempDir()

	// ---- First life: define, subscribe, run, crash. ----
	env1, vc1 := testEnv(t, true)
	r1 := env1.NewRegistry("op")
	for i := 0; i < 3; i++ {
		defineCell(t, r1, i)
		setSrc(i, float64(10+i))
	}
	p1, rs1, err := Open(env1, dir, Options{}, r1)
	if err != nil {
		t.Fatalf("first Open: %v", err)
	}
	if rs1.Recovered {
		t.Fatalf("fresh dir reported recovered: %+v", rs1)
	}
	subs := make([]*core.Subscription, 3)
	for i := range subs {
		if subs[i], err = r1.Subscribe(core.Kind(fmt.Sprintf("cell%d", i))); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	vc1.Advance(100)
	env1.Quiesce()
	ver1, _ := r1.ItemVersion("cell1")
	if err := p1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if env1.Stats().Checkpoints.Load() < 2 { // barrier + explicit
		t.Fatalf("Checkpoints stat = %d", env1.Stats().Checkpoints.Load())
	}
	p1.Abandon() // SIGKILL

	// The world moves on while the process is down.
	for i := 0; i < 3; i++ {
		setSrc(i, float64(1000+i))
	}

	// ---- Second life: recover. ----
	env2, vc2 := testEnv(t, true)
	r2 := env2.NewRegistry("op")
	p2, rs2, err := Open(env2, dir, Options{}, r2)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer p2.Close()
	if !rs2.Recovered || rs2.Defined != 3 || rs2.Subscribed != 3 || rs2.Restored != 3 || rs2.Skipped != 0 {
		t.Fatalf("recovery stats = %+v, want 3 defined/subscribed/restored", rs2)
	}
	if vc2.Now() < vc1.Now() {
		t.Fatalf("recovered clock %d behind pre-crash %d", vc2.Now(), vc1.Now())
	}
	// Reads serve the pre-crash last-good tagged stale — not the live
	// source (1000+i), and not a placeholder.
	for i := 0; i < 3; i++ {
		kind := core.Kind(fmt.Sprintf("cell%d", i))
		v, err := r2.Peek(kind)
		if !errors.Is(err, core.ErrStale) || !errors.Is(err, core.ErrRestored) {
			t.Fatalf("%s: err = %v, want ErrStale+ErrRestored", kind, err)
		}
		if v.(float64) != float64(10+i) {
			t.Fatalf("%s = %v, want checkpointed %d", kind, v, 10+i)
		}
		if hs, ok := r2.Health(kind); !ok || hs.State != core.Quarantined {
			t.Fatalf("%s health = %+v, want quarantined", kind, hs)
		}
	}
	// Version stream continued: the stale republish is persisted+1.
	if ver2, _ := r2.ItemVersion("cell1"); ver2 != ver1+1 {
		t.Fatalf("cell1 version = %d, want pre-crash %d + 1", ver2, ver1)
	}
	if env2.Stats().Recoveries.Load() != 1 || env2.Stats().RestoredStale.Load() != 3 {
		t.Fatalf("recovery stats: Recoveries=%d RestoredStale=%d",
			env2.Stats().Recoveries.Load(), env2.Stats().RestoredStale.Load())
	}
	// A warm start computes nothing: rebuild, restore and the reads above
	// were all served from the checkpoint.
	if got := env2.Stats().ComputeCalls.Load(); got != 0 {
		t.Fatalf("recovery ran %d computes, want 0", got)
	}

	// ---- Warm phase: probes recompute from the live world. ----
	vc2.Advance(2 * core.DefaultBreakerPolicy.MaxProbeBackoff)
	env2.Quiesce()
	for i := 0; i < 3; i++ {
		kind := core.Kind(fmt.Sprintf("cell%d", i))
		v, err := r2.Peek(kind)
		if err != nil {
			t.Fatalf("%s after warm: %v", kind, err)
		}
		if v.(float64) != float64(1000+i) {
			t.Fatalf("%s after warm = %v, want live %d", kind, v, 1000+i)
		}
		if hs, _ := r2.Health(kind); hs.State != core.Healthy {
			t.Fatalf("%s health after warm = %+v", kind, hs)
		}
	}
}

// TestRecoverWALTail covers structural ops recorded after the last
// checkpoint: they replay from the WAL in commit order.
func TestRecoverWALTail(t *testing.T) {
	dir := t.TempDir()
	env1, _ := testEnv(t, true)
	r1 := env1.NewRegistry("op")
	for i := 0; i < 3; i++ {
		defineCell(t, r1, i)
		setSrc(i, float64(i))
	}
	p1, _, err := Open(env1, dir, Options{}, r1)
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := r1.Subscribe("cell0")
	if err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail: subscribe cell1, migrate it, drop cell0. None checkpointed.
	if _, err := r1.Subscribe("cell1"); err != nil {
		t.Fatal(err)
	}
	if err := r1.Migrate("cell1", core.PeriodicMechanism, 25); err != nil {
		t.Fatal(err)
	}
	s0.Unsubscribe()
	// Cumulative counter: 1 pre-checkpoint subscribe + 3 tail ops.
	if env1.Stats().WALRecords.Load() != 4 {
		t.Fatalf("WALRecords = %d, want 4", env1.Stats().WALRecords.Load())
	}
	p1.Abandon()

	env2, _ := testEnv(t, true)
	r2 := env2.NewRegistry("op")
	p2, rs2, err := Open(env2, dir, Options{}, r2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rs2.WALRecords != 3 || rs2.WALTruncated {
		t.Fatalf("tail replay = %+v", rs2)
	}
	if r2.IsIncluded("cell0") {
		t.Fatal("cell0 still included after tail unsubscribe replay")
	}
	if !r2.IsIncluded("cell1") {
		t.Fatal("cell1 not included after tail subscribe replay")
	}
	if m, _ := r2.Mechanism("cell1"); m != core.PeriodicMechanism {
		t.Fatalf("cell1 mechanism = %v, want periodic after tail migrate replay", m)
	}
	if w, _ := r2.Window("cell1"); w != 25 {
		t.Fatalf("cell1 window = %d, want 25", w)
	}
}

// TestRecoverNoBreaker: without WithBreaker there is no quarantine to
// serve stale values through, so recovery degrades gracefully to cold
// recomputes — topology restored, values live, nothing restored stale.
func TestRecoverNoBreaker(t *testing.T) {
	dir := t.TempDir()
	env1, _ := testEnv(t, true)
	r1 := env1.NewRegistry("op")
	defineCell(t, r1, 0)
	setSrc(0, 5)
	p1, _, err := Open(env1, dir, Options{}, r1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Subscribe("cell0"); err != nil {
		t.Fatal(err)
	}
	p1.Checkpoint()
	p1.Abandon()

	setSrc(0, 77)
	env2, _ := testEnv(t, false)
	r2 := env2.NewRegistry("op")
	p2, rs2, err := Open(env2, dir, Options{}, r2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rs2.Restored != 0 || rs2.Subscribed != 1 {
		t.Fatalf("no-breaker recovery = %+v", rs2)
	}
	v, err := r2.Peek("cell0")
	if err != nil || v.(float64) != 77 {
		t.Fatalf("cold recompute = %v, %v; want live 77", v, err)
	}
}

// TestCorruptCheckpointFails: a damaged checkpoint is a hard error (it
// is written atomically, so damage is real), reported as errCorrupt.
func TestCorruptCheckpointFails(t *testing.T) {
	dir := t.TempDir()
	env1, _ := testEnv(t, true)
	r1 := env1.NewRegistry("op")
	defineCell(t, r1, 0)
	p1, _, err := Open(env1, dir, Options{}, r1)
	if err != nil {
		t.Fatal(err)
	}
	p1.Close()
	path := filepath.Join(dir, "checkpoint.db")
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(path, raw, 0o644)

	env2, _ := testEnv(t, true)
	r2 := env2.NewRegistry("op")
	if _, _, err := Open(env2, dir, Options{}, r2); !errors.Is(err, errCorrupt) {
		t.Fatalf("Open on corrupt checkpoint = %v, want errCorrupt", err)
	}
}

// TestAutoCheckpoint: CheckpointEvery rotates the WAL automatically.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	env, _ := testEnv(t, true)
	r := env.NewRegistry("op")
	for i := 0; i < 8; i++ {
		defineCell(t, r, i)
	}
	p, _, err := Open(env, dir, Options{CheckpointEvery: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	base := env.Stats().Checkpoints.Load() // the Open barrier
	var held []*core.Subscription
	for i := 0; i < 8; i++ {
		s, err := r.Subscribe(core.Kind(fmt.Sprintf("cell%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	if got := env.Stats().Checkpoints.Load() - base; got != 2 {
		t.Fatalf("auto checkpoints = %d, want 2 (8 ops / every 4)", got)
	}
	// Only the current segment remains on disk.
	seen := 0
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if len(e.Name()) > 4 && e.Name()[:4] == "wal." {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("%d WAL segments on disk, want 1 (rotation deletes old)", seen)
	}
	for _, s := range held {
		s.Unsubscribe()
	}
}

// TestInlineCheckpointWithLivePeriodicMigration: an inline checkpoint
// runs from the journal hook, under the scope lock of the operation that
// crossed CheckpointEvery, and must read a live periodic migration's
// window without re-entering that lock. The operations run on a guard
// goroutine; on a hang the test fails without touching the plane, whose
// mutex the wedged checkpoint holds.
func TestInlineCheckpointWithLivePeriodicMigration(t *testing.T) {
	dir := t.TempDir()
	env, _ := testEnv(t, true)
	r := env.NewRegistry("op")
	defineCell(t, r, 0)
	defineCell(t, r, 1)
	p, _, err := Open(env, dir, Options{CheckpointEvery: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	base := env.Stats().Checkpoints.Load()
	done := make(chan error, 1)
	go func() {
		if _, err := r.Subscribe("cell0"); err != nil {
			done <- err
			return
		}
		if err := r.Migrate("cell0", core.PeriodicMechanism, 25); err != nil {
			done <- err
			return
		}
		_, err := r.Subscribe("cell1")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("inline checkpoint with a live periodic migration did not return")
	}
	if got := env.Stats().Checkpoints.Load() - base; got != 1 {
		t.Fatalf("inline checkpoints = %d, want 1 (3 ops / every 2)", got)
	}
	p.Abandon()

	// The checkpoint carried the migration with its live window.
	env2, _ := testEnv(t, true)
	r2 := env2.NewRegistry("op")
	p2, rs, err := Open(env2, dir, Options{}, r2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rs.Migrated != 1 || rs.Skipped != 0 {
		t.Fatalf("recovery stats %+v, want 1 migration and nothing skipped", rs)
	}
	if mech, _ := r2.Mechanism("cell0"); mech != core.PeriodicMechanism {
		t.Fatalf("recovered cell0 mechanism %v, want periodic", mech)
	}
	if win, _ := r2.Window("cell0"); win != 25 {
		t.Fatalf("recovered cell0 window %d, want 25", win)
	}
}

// TestCloseReleasesAndRestartRepins: Close writes a final checkpoint
// before releasing its recovered pins, so repeated graceful restarts
// keep the same subscription set.
func TestCloseReleasesAndRestartRepins(t *testing.T) {
	dir := t.TempDir()
	env1, _ := testEnv(t, true)
	r1 := env1.NewRegistry("op")
	defineCell(t, r1, 0)
	setSrc(0, 5)
	p1, _, err := Open(env1, dir, Options{}, r1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Subscribe("cell0"); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	for restart := 0; restart < 3; restart++ {
		env, _ := testEnv(t, true)
		r := env.NewRegistry("op")
		p, rs, err := Open(env, dir, Options{}, r)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if rs.Subscribed != 1 {
			t.Fatalf("restart %d: Subscribed = %d, want stable 1", restart, rs.Subscribed)
		}
		if !r.IsIncluded("cell0") {
			t.Fatalf("restart %d: cell0 not re-pinned", restart)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("restart %d close: %v", restart, err)
		}
	}
}

func init() {
	// One kind whatever the args; the args decide the value.
	RegisterCodec("test.len", func(args string) (*core.Definition, error) {
		return &core.Definition{
			Kind:  "len",
			Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(float64(len(args))), nil },
		}, nil
	})
}

// TestRecoverRedefinitionInWALTail: both definitions of a kind redefined
// while unused (Section 4.4.2) are journaled, and replay ends on the
// second — unless application code defined the kind before Open, whose
// version replay keeps.
func TestRecoverRedefinitionInWALTail(t *testing.T) {
	dir := t.TempDir()
	env1, _ := testEnv(t, true)
	r1 := env1.NewRegistry("op")
	p1, _, err := Open(env1, dir, Options{}, r1)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{"a", "bbb"} {
		def, err := buildDef("test.len", args)
		if err != nil {
			t.Fatal(err)
		}
		r1.MustDefine(def)
	}
	if _, err := r1.Subscribe("len"); err != nil {
		t.Fatal(err)
	}
	if v, err := r1.Peek("len"); err != nil || v != 3.0 {
		t.Fatalf("pre-crash len = %v, %v; want 3", v, err)
	}
	p1.Abandon()

	recoverLen := func(define func(*core.Registry)) (core.Value, *RecoveryStats) {
		t.Helper()
		env, _ := testEnv(t, true)
		r := env.NewRegistry("op")
		define(r)
		p, rs, err := Open(env, dir, Options{}, r)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Abandon()
		v, err := r.Peek("len")
		if err != nil {
			t.Fatalf("recovered len: %v (stats %+v)", err, rs)
		}
		return v, rs
	}
	if v, rs := recoverLen(func(*core.Registry) {}); v != 3.0 || rs.Defined != 2 || rs.Skipped != 0 {
		t.Fatalf("bare registry recovered len = %v with %+v; want the second definition's 3, both records defined", v, rs)
	}
	v, rs := recoverLen(func(r *core.Registry) {
		def, err := buildDef("test.len", "zzzzz")
		if err != nil {
			t.Fatal(err)
		}
		r.MustDefine(def)
	})
	if v != 5.0 || rs.Defined != 0 || rs.Skipped != 0 {
		t.Fatalf("application-defined len = %v with %+v; want the application's 5, nothing redefined", v, rs)
	}
}
