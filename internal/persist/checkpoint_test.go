package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// encodeRecs writes recs as a checkpoint with info's header.
func encodeRecs(info CheckpointInfo, recs []ckptRec) []byte {
	var out bytes.Buffer
	w := newCkptWriter(&out, info.Seq, info.Now)
	for i := range recs {
		w.put(&recs[i])
	}
	if err := w.finish(); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return out.Bytes()
}

// decodeRecs collects a checkpoint's records.
func decodeRecs(b []byte) (CheckpointInfo, []ckptRec, error) {
	var recs []ckptRec
	rd := newCkptReader(b)
	for rec := (ckptRec{}); rd.next(&rec); {
		recs = append(recs, rec)
	}
	return rd.info, recs, rd.err
}

// floatValue and jsonValue are an item record's b.
func floatValue(f float64) []byte { b, _ := appendValue(nil, f); return b }
func jsonValue(v any) []byte      { b, _ := appendValue(nil, v); return b }

// sampleRecs has one record of every shape, in section order.
func sampleRecs() []ckptRec {
	return []ckptRec{
		{tag: recDefine, reg: "op", kind: "cell0", s: "test.cell", b: []byte("0")},
		{tag: recItem, reg: "op", kind: "cell0", n: 9, b: floatValue(3.5)},
		{tag: recDefine, reg: "op", kind: "cell1", s: "test.cell", b: []byte{}},
		{tag: recItem, reg: "op", kind: "cell1", n: 300, s: "core: compute timed out", b: jsonValue(map[string]any{"a": []int{1, 2}})},
		{tag: recItem, reg: "sink", kind: "cell0", n: 1, s: "core: compute timed out", b: floatValue(math.NaN())},
		{tag: recSub, reg: "op", kind: "cell0", n: 2, b: []byte{}},
		{tag: recMig, reg: "op", kind: "cell0", n: 50, b: []byte{2}},
		{tag: recMig, reg: "", kind: "", n: 0, b: []byte{1}},
	}
}

// frameEdges returns the offset of every frame boundary of a checkpoint
// (the magic's end, then the end of each frame).
func frameEdges(t *testing.T, enc []byte) []int {
	t.Helper()
	edges := []int{len(ckptMagic)}
	for off := len(ckptMagic); off < len(enc); {
		p, n, err := readFrame(enc[off:])
		if err != nil || len(p) > ckptChunk {
			t.Fatalf("frame at %d: %v (%d payload bytes)", off, err, len(p))
		}
		off += n
		edges = append(edges, off)
	}
	return edges
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleRecs()
	hdr := CheckpointInfo{Seq: 7, Now: 1234, Records: 8}
	enc := encodeRecs(hdr, want)
	info, got, err := decodeRecs(enc)
	if err != nil {
		t.Fatal(err)
	}
	if info != hdr || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n%+v %+v\nwant\n%+v %+v", info, got, hdr, want)
	}
	if di, err := DecodeCheckpoint(enc); err != nil || *di != hdr {
		t.Fatalf("DecodeCheckpoint = %+v, %v; want %+v", di, err, hdr)
	}
	if again := encodeRecs(info, got); !bytes.Equal(again, enc) {
		t.Fatal("re-encoding the decoded records changed the bytes")
	}
	// Interned: the second mention of a string is its table index.
	if n := bytes.Count(enc, []byte("core: compute timed out")); n != 1 {
		t.Fatalf("stale cause text written %d times, want 1", n)
	}

	for name, mangle := range map[string]func([]byte) []byte{
		"bad magic":   func(b []byte) []byte { b[0] = 'X'; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)-3] },
		"trailing":    func(b []byte) []byte { return append(b, 0xFF) },
		"crc flip":    func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"empty":       func([]byte) []byte { return nil },
		"magic only":  func(b []byte) []byte { return b[:len(ckptMagic)] },
		"no trailer":  func(b []byte) []byte { e := frameEdges(t, b); return b[:e[len(e)-2]] },
		"extra frame": func(b []byte) []byte { return appendFrame(b, []byte{recEnd, 0}) },
		"big frame": func(b []byte) []byte {
			return append(appendFrame(b[:len(ckptMagic):len(ckptMagic)], make([]byte, ckptChunk+1)), b[len(ckptMagic):]...)
		},
	} {
		if _, err := DecodeCheckpoint(mangle(bytes.Clone(enc))); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want errCorrupt", name, err)
		}
	}
	for cut := range enc {
		if _, err := DecodeCheckpoint(enc[:cut]); !errors.Is(err, errCorrupt) {
			t.Fatalf("cut at byte %d of %d: err = %v, want errCorrupt", cut, len(enc), err)
		}
	}
	v1 := append([]byte("MDCKPT1\n"), enc[len(ckptMagic):]...)
	if _, err := DecodeCheckpoint(v1); !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), `version '1'`) {
		t.Errorf("v1 file: err = %v, want errCorrupt naming version 1", err)
	}
}

// TestCheckpointFramesAndDamage writes a checkpoint of many frames
// whose records straddle the edges, and damages it everywhere a crash
// or a bad sector could: a cut at every frame edge and a flipped bit in
// every frame. (TestCheckpointRoundTrip cuts a small file at every byte.)
func TestCheckpointFramesAndDamage(t *testing.T) {
	var want []ckptRec
	for i := 0; len(want) < 60_000; i++ {
		reg := fmt.Sprintf("r%04d", i)
		for k := 0; k < 12; k++ {
			kind := fmt.Sprintf("k%d", k)
			want = append(want,
				ckptRec{tag: recDefine, reg: reg, kind: kind, s: "c", b: []byte(fmt.Sprint(i, k))},
				ckptRec{tag: recItem, reg: reg, kind: kind, n: uint64(i*k + 1), b: floatValue(float64(i*100 + k))})
		}
	}
	big := append([]byte{'j'}, bytes.Repeat([]byte("7"), ckptChunk+ckptChunk/2)...) // one value longer than a frame
	want = append(want, ckptRec{tag: recItem, reg: "big", kind: "v", n: 1, b: big})
	enc := encodeRecs(CheckpointInfo{Seq: 3}, want)
	_, got, err := decodeRecs(enc)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-frame round trip: %v (%d of %d records)", err, len(got), len(want))
	}
	edges := frameEdges(t, enc)
	if len(edges) < 6 {
		t.Fatalf("%d frames, want the records to span several", len(edges)-1)
	}
	for i, edge := range edges[:len(edges)-1] {
		if _, err := DecodeCheckpoint(enc[:edge]); !errors.Is(err, errCorrupt) {
			t.Fatalf("cut at frame edge %d (byte %d): err = %v, want errCorrupt", i, edge, err)
		}
		flipped := bytes.Clone(enc)
		flipped[edge+frameHeader+(edges[i+1]-edge-frameHeader)/2] ^= 0x10
		if _, err := DecodeCheckpoint(flipped); !errors.Is(err, errCorrupt) {
			t.Fatalf("bit flip in frame %d: err = %v, want errCorrupt", i, err)
		}
	}
}

// TestCheckpointMalformedRecords: frames that pass their CRC but carry
// a stream the writer never produces.
func TestCheckpointMalformedRecords(t *testing.T) {
	// stream frames the header (seq 1, now 0) and the given records.
	stream := func(recs ...[]byte) []byte {
		return append(bytes.Clone(ckptMagic), appendFrame(nil, append([]byte{1, 0}, bytes.Join(recs, nil)...))...)
	}
	// rec is a record naming kind "k" and cause/codec "" for the first
	// time (table entries 0 and 1); again refers back to both.
	rec := func(tag, n byte, b ...byte) []byte {
		return append([]byte{tag, 0, 1, 'k', n, 1, 0, byte(len(b))}, b...)
	}
	again := func(tag, n byte, b ...byte) []byte { return append([]byte{tag, 0, n, 1, byte(len(b))}, b...) }
	end := func(n byte) []byte { return []byte{recEnd, n} }
	float := []byte{'f', 1, 2, 3, 4, 5, 6, 7, 8}
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for name, b := range map[string][]byte{
		"unknown tag":           stream(rec(0, 1), end(1)),
		"tag out of range":      stream(rec(9, 1), end(1)),
		"string beyond":         stream([]byte{recItem, 5}),
		"forged length":         stream(append([]byte{recItem, 0, 1, 'k', 1, 1, 0}, huge...), end(1)),
		"short float":           stream(rec(recItem, 1, 'f', 1, 2), end(1)),
		"unknown value":         stream(rec(recItem, 1, 'x', 1), end(1)),
		"empty JSON":            stream(rec(recItem, 1, 'j'), end(1)),
		"mig without mechanism": stream(rec(recMig, 1), end(1)),
		"wrong total":           stream(rec(recItem, 1, float...), end(2)),
		"no trailer":            stream(rec(recItem, 1, float...)),
		"after trailer":         stream(rec(recItem, 1, float...), end(1), []byte{0}),
		"overlong varint":       stream(append([]byte{recItem}, bytes.Repeat([]byte{0xFF}, 11)...)),
		"sub count":             stream(append(append([]byte{recSub, 0, 1, 'k'}, huge...), 1, 0, 0), end(1)),
		"item after sub":        stream(rec(recSub, 1), again(recItem, 1, float...), end(2)),
		"sub after mig":         stream(rec(recMig, 1, 2), again(recSub, 1), end(2)),
		"unsub in a checkpoint": stream(rec(recUnsub, 1), end(1)),
	} {
		if _, err := DecodeCheckpoint(b); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want errCorrupt", name, err)
		}
	}
	// The same shapes, well-formed, decode: the cases above fail for the
	// named reason and not for a slip in the hand-built bytes.
	ok := stream(rec(recItem, 1, float...), again(recItem, 1, 'j', '1'), again(recSub, 3), again(recMig, 1, 2), end(4))
	if info, err := DecodeCheckpoint(ok); err != nil || info.Records != 4 || info.Seq != 1 {
		t.Fatalf("well-formed hand-built stream: %+v, %v", info, err)
	}
}

// TestCheckpointAboveOneFrame: a plane whose values total more than the
// 64 MiB a single frame may hold still checkpoints into a file that the
// next Open reads back — format 1 wrote it as one frame no reader
// accepted.
func TestCheckpointAboveOneFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and recovers a 70 MiB checkpoint")
	}
	const items, each = 5, 14 << 20
	value := func(i int) string { return strings.Repeat(string(rune('a'+i)), each) }
	define := func(r *core.Registry) {
		for i := 0; i < items; i++ {
			i := i
			r.MustDefine(&core.Definition{
				Kind: core.Kind(fmt.Sprintf("blob%d", i)),
				Build: func(*core.BuildContext) (core.Handler, error) {
					return core.NewTriggered(func(clock.Time) (core.Value, error) { return value(i), nil }), nil
				},
			})
		}
	}
	dir := t.TempDir()
	env1, _ := testEnv(t, true)
	r1 := env1.NewRegistry("op")
	define(r1)
	p1, _, err := Open(env1, dir, Options{Sync: SyncNone}, r1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items; i++ {
		if _, err := r1.Subscribe(core.Kind(fmt.Sprintf("blob%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p1.Abandon()
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.db"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= maxFrame {
		t.Fatalf("checkpoint is %d bytes, the test needs more than maxFrame (%d)", len(raw), maxFrame)
	}
	frameEdges(t, raw) // every frame within ckptChunk

	env2, _ := testEnv(t, true)
	r2 := env2.NewRegistry("op")
	define(r2)
	p2, rs, err := Open(env2, dir, Options{Sync: SyncNone}, r2)
	if err != nil {
		t.Fatalf("Open of a %d-byte checkpoint: %v", len(raw), err)
	}
	defer p2.Abandon()
	if rs.Restored != items || rs.Skipped != 0 {
		t.Fatalf("recovery stats %+v, want %d restored", rs, items)
	}
	for i := 0; i < items; i++ {
		v, err := r2.Peek(core.Kind(fmt.Sprintf("blob%d", i)))
		if !errors.Is(err, core.ErrRestored) || v != value(i) {
			t.Fatalf("blob%d: restored %d bytes, err %v", i, len(fmt.Sprint(v)), err)
		}
	}
	// A WAL record above the frame limit — a define whose codec args
	// exceed it — is refused at the append and stops journaling, not
	// lost at the next replay.
	def, err := buildDef("test.len", strings.Repeat("x", maxFrame+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Define(def); err != nil {
		t.Fatal(err)
	}
	if err := p2.Err(); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("plane error after a define above maxFrame: %v", err)
	}
}

// TestStaleCauseSurvivesRestartsUnchanged: an item that crashes again
// before its probe warmed it keeps its root cause, not one more layer
// of "pre-crash cause" per restart — and the checkpoint keeps its size.
func TestStaleCauseSurvivesRestartsUnchanged(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("sensor unplugged")
	life := func(first bool) (causes [2]string, size int64) {
		env, _ := testEnv(t, true)
		r := env.NewRegistry("op")
		defineCell(t, r, 0)
		defineCell(t, r, 1)
		p, rs, err := Open(env, dir, Options{}, r)
		if err != nil {
			t.Fatal(err)
		}
		if first {
			// cell0 starts quarantined with a cause of its own; cell1 is
			// healthy when the process dies.
			env.SetRestoreLookup(func(_ *core.Registry, kind core.Kind) *core.RestoredItem {
				if kind != "cell0" {
					return nil
				}
				return &core.RestoredItem{Value: 1.5, Version: 3, Cause: boom}
			})
			for _, kind := range []core.Kind{"cell0", "cell1"} {
				if _, err := r.Subscribe(kind); err != nil {
					t.Fatal(err)
				}
			}
			env.SetRestoreLookup(nil)
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		} else if rs.Restored != 2 || rs.Skipped != 0 {
			t.Fatalf("recovery stats %+v", rs)
		}
		for i, kind := range []core.Kind{"cell0", "cell1"} {
			hs, _ := r.Health(kind)
			if hs.State != core.Quarantined && !(first && i == 1) {
				t.Fatalf("%s health %+v, want quarantined (probes are held back)", kind, hs)
			}
			if hs.Cause != nil {
				causes[i] = hs.Cause.Error()
			}
			if !first && !errors.Is(hs.Cause, core.ErrRestored) {
				t.Fatalf("%s cause %v is not ErrRestored", kind, hs.Cause)
			}
		}
		p.Abandon() // crash again, no probe has run
		st, err := os.Stat(filepath.Join(dir, "checkpoint.db"))
		if err != nil {
			t.Fatal(err)
		}
		return causes, st.Size()
	}
	life(true)
	c1, _ := life(false)
	c2, size2 := life(false)
	c3, size3 := life(false)
	want := [2]string{core.ErrRestored.Error() + " (pre-crash cause: sensor unplugged)", core.ErrRestored.Error()}
	if c1 != want || c2 != want || c3 != want {
		t.Fatalf("causes after restarts 1-3:\n%q\n%q\n%q\nwant\n%q", c1, c2, c3, want)
	}
	if size2 != size3 {
		t.Fatalf("checkpoint grew from %d to %d bytes over one more restart", size2, size3)
	}
}

// checkSteadyState fails unless p's directory holds exactly what a
// rotation leaves: the checkpoint, its spare and the current WAL segment.
func checkSteadyState(t *testing.T, p *Plane) {
	t.Helper()
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if want := []string{"checkpoint.db", "checkpoint.db.tmp", filepath.Base(p.walPath(p.seq))}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %q, want %q", names, want)
	}
}

// TestCheckpointReusesSpare: a checkpoint is written over the file of
// the one before the current, so a rotation frees no file. From the
// third checkpoint on, the new checkpoint.db is the file that
// checkpoint.db.tmp was; the fourth is smaller than that file and must
// still read back whole.
func TestCheckpointReusesSpare(t *testing.T) {
	dir := t.TempDir()
	env, _ := testEnv(t, true)
	r := env.NewRegistry("op")
	for i := 8; i < 12; i++ {
		defineCell(t, r, i)
	}
	p, _, err := Open(env, dir, Options{}, r) // its barrier is the first checkpoint
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var subs []*core.Subscription
	for i := 8; i < 12; i++ {
		s, err := r.Subscribe(core.Kind(fmt.Sprintf("cell%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	path := filepath.Join(dir, "checkpoint.db")
	for n := 2; n <= 4; n++ {
		spare, spareErr := os.Stat(path + ".tmp")
		if n == 4 {
			for _, s := range subs[1:] {
				s.Unsubscribe()
			}
		}
		if err := p.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", n, err)
		}
		cur, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if n > 2 && (spareErr != nil || !os.SameFile(cur, spare)) {
			t.Fatalf("checkpoint %d went to a new file, not over the spare (%v)", n, spareErr)
		}
		checkSteadyState(t, p)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := DecodeCheckpoint(raw); err != nil || info.Seq != 4 {
		t.Fatalf("the fourth checkpoint reads %+v, %v", info, err)
	}
}

// TestCheckpointRotationCrashStates hand-builds the directory a crash
// leaves at each step boundary of writeCheckpoint. Open recovers the
// checkpoint last renamed into place, and the checkpoints after it
// reuse or remove whatever the crash left.
func TestCheckpointRotationCrashStates(t *testing.T) {
	// Two checkpoints of one plane, the newer with other values. Each
	// case leaves the older one's WAL segment empty, so a recovery reads
	// its checkpoint alone.
	src := t.TempDir()
	env, _ := testEnv(t, true)
	r := env.NewRegistry("op")
	kinds := []core.Kind{"cell12", "cell13", "cell14"}
	for i := range kinds {
		defineCell(t, r, 12+i)
		setSrc(12+i, float64(10+i))
	}
	p, _, err := Open(env, src, Options{}, r)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*core.Subscription, len(kinds))
	subscribe := func() {
		for i, k := range kinds {
			if subs[i], err = r.Subscribe(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	subscribe()
	checkpoint := func() []byte {
		if err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(src, "checkpoint.db"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	older := checkpoint()
	olderSeq := p.seq
	// The items of the newer one serve other values, restored as they
	// are included again.
	for _, s := range subs {
		s.Unsubscribe()
	}
	env.SetRestoreLookup(func(_ *core.Registry, kind core.Kind) *core.RestoredItem {
		return &core.RestoredItem{Value: float64(20 + slices.Index(kinds, kind)), Version: 5}
	})
	subscribe()
	env.SetRestoreLookup(nil)
	newer := checkpoint()
	p.Abandon()

	garbage := bytes.Repeat([]byte{0xA5}, len(newer)+100)
	for _, tc := range []struct {
		name                 string
		ckpt, spare, sideOld []byte // nil: no such file
		link                 bool   // checkpoint.db.old is a second link to checkpoint.db
		seq                  uint64
		base                 float64 // the recovered value of kinds[i] is base+i
	}{
		{name: "garbage spare", ckpt: older, spare: garbage, seq: olderSeq, base: 10},
		{name: "complete spare never renamed", ckpt: older, spare: newer, seq: olderSeq, base: 10},
		{name: "complete spare, old linked", ckpt: older, spare: newer, link: true, seq: olderSeq, base: 10},
		{name: "renamed, old under side name", ckpt: newer, sideOld: older, seq: olderSeq + 1, base: 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "checkpoint.db")
			for name, b := range map[string][]byte{path: tc.ckpt, path + ".tmp": tc.spare, path + ".old": tc.sideOld, filepath.Join(dir, fmt.Sprintf("wal.%d.log", olderSeq)): {}} {
				if b != nil {
					if err := os.WriteFile(name, b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.link {
				if err := os.Link(path, path+".old"); err != nil {
					t.Skipf("hard links: %v", err)
				}
			}
			env, _ := testEnv(t, true)
			r := env.NewRegistry("op")
			p, rs, err := Open(env, dir, Options{}, r)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Abandon()
			if rs.CheckpointSeq != tc.seq || rs.Restored != len(kinds) || rs.Subscribed != len(kinds) || rs.Skipped != 0 {
				t.Fatalf("recovery stats %+v, want checkpoint %d with %d restored and subscribed", rs, tc.seq, len(kinds))
			}
			for i, k := range kinds {
				if v, err := r.Peek(k); !errors.Is(err, core.ErrRestored) || v != tc.base+float64(i) {
					t.Fatalf("%s recovered %v, %v; want %v restored", k, v, err, tc.base+float64(i))
				}
			}
			checkSteadyState(t, p) // after the barrier checkpoint
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			checkSteadyState(t, p)
		})
	}
}

// TestCheckpointSectionsFollowMirror: the sub and migration sections a
// checkpoint writes are the plane's mirror, in (registry, kind) order —
// every item with subscriptions, and every migration still live on an
// included item with its current window — across registries opened out
// of order, one the plane does not cover, a migration undone by a
// release, and unsubscriptions.
func TestCheckpointSectionsFollowMirror(t *testing.T) {
	env, _ := testEnv(t, true)
	regs := map[string]*core.Registry{}
	cell := 30
	for _, id := range []string{"c", "a", "b", "ab"} {
		regs[id] = env.NewRegistry(id)
		for i := 0; i < 3; i++ {
			defineCell(t, regs[id], cell)
			cell++
		}
	}
	dir := t.TempDir()
	p, _, err := Open(env, dir, Options{}, regs["c"], regs["a"], regs["b"])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abandon()
	sub := func(id string, kind core.Kind) *core.Subscription {
		t.Helper()
		s, err := regs[id].Subscribe(kind)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	migrate := func(id string, kind core.Kind, to core.Mechanism, window clock.Duration) {
		t.Helper()
		if err := regs[id].Migrate(kind, to, window); err != nil {
			t.Fatal(err)
		}
	}
	// c holds cell30-32, a cell33-35, b cell36-38, the uncovered ab
	// cell39-41.
	sub("ab", "cell40")
	sub("a", "cell33")
	sub("a", "cell33").Unsubscribe()
	sub("a", "cell35")
	migrate("a", "cell33", core.PeriodicMechanism, 25)
	sub("b", "cell36")
	released := sub("b", "cell37")
	migrate("b", "cell37", core.OnDemandMechanism, 0)
	released.Unsubscribe()
	sub("c", "cell30").Unsubscribe()
	for i := 0; i < 3; i++ {
		sub("c", "cell32")
	}
	migrate("c", "cell32", core.OnDemandMechanism, 0)

	// The oracle: the mirror in sorted order, each section filtered as
	// the checkpoint's format defines it.
	var ids []string
	for id := range p.topo {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var want []ckptRec
	for _, id := range ids {
		for _, t := range p.topo[id] {
			if t.subs > 0 {
				want = append(want, ckptRec{tag: recSub, reg: id, kind: t.kind, n: uint64(t.subs)})
			}
		}
	}
	for _, id := range ids {
		for _, t := range p.topo[id] {
			kind := core.Kind(t.kind)
			if mech, ok := regs[id].Mechanism(kind); t.mig == nil || !ok || mech != core.Mechanism(t.mig.b[0]) {
				continue
			}
			rec := *t.mig
			if w, _ := regs[id].Window(kind); w > 0 {
				rec.n = uint64(w)
			}
			want = append(want, rec)
		}
	}
	if len(want) != 7 {
		t.Fatalf("the plane mirrors %d sub and migration records, want 5 + 2: %+v", len(want), want)
	}

	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.db"))
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := decodeRecs(raw)
	if err != nil {
		t.Fatal(err)
	}
	var got []ckptRec
	for _, rec := range recs {
		if rec.tag == recSub || rec.tag == recMig {
			rec.s, rec.b = "", bytes.Clone(rec.b)
			if rec.tag == recSub {
				rec.b = nil
			}
			got = append(got, rec)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint sections\n%+v\nwant the mirror's\n%+v", got, want)
	}
}
