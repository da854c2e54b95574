package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/clock"
	"repro/internal/core"
)

// Checkpoint format MDCKPT2: the magic, then CRC frames (frame.go) of
// at most ckptChunk payload bytes whose payloads, concatenated, are one
// stream. A record may straddle a frame edge, so no value is too large
// to write and none makes a frame the reader refuses. The stream is
//
//	uvarint seq, uvarint now
//	recRegistry, str id        the registry of the records after it
//	tag, str kind, uvarint n, str s, bytes b        one record, where
//
//	  tag        n        s      b
//	  recDefine  -        codec  codec arguments
//	  recItem    version  cause  'f' + 8 bytes of float bits | 'j' + JSON
//	  recSub     count    -      -
//	  recMig     window   -      the target mechanism, one byte
//	  recUnsub   -        -      -      (WAL segments only, wal.go)
//
//	recEnd, uvarint records    the trailer, in a frame of its own
//
// in the order recovery applies it: defines and items, then subs, then
// migrations. bytes is a uvarint length and the bytes; str goes through
// a string table built while reading — a uvarint below the table's size
// names an entry, one equal to it is followed by bytes and appends them
// — so an id, a kind, a codec or a stale cause costs its text once per
// file. Writer and reader hold one record at a time. A file cut
// anywhere lacks the trailer, so every defect — magic, torn or
// oversized frame, CRC, malformed record, wrong total, trailing bytes —
// is errCorrupt.
var ckptMagic = []byte("MDCKPT2\n")

// ckptChunk bounds a checkpoint frame's payload.
const ckptChunk = 256 << 10

const (
	recDefine = iota + 1
	recItem
	recSub
	recMig
	recRegistry
	recEnd
	recUnsub // past recSection: a checkpoint never holds one
)

// recSection orders the record tags: a record never follows one of a
// later section.
var recSection = [...]int{recDefine: 1, recItem: 1, recSub: 2, recMig: 3}

// ckptRec is one record of a checkpoint or a WAL segment; see the
// format table for n, s and b. An item's cause is the root cause of one
// already serving a stale value, "" otherwise.
type ckptRec struct {
	tag       byte
	reg, kind string
	n         uint64
	s         string
	b         []byte
}

// appendValue encodes an item's value as a record's b, reporting false
// for one that does not round-trip (functions, channels, cyclic
// graphs). Floats keep their IEEE-754 bit pattern — a decimal rendering
// would perturb the modelcheck bit-identity contract; the rest is JSON.
func appendValue(dst []byte, v core.Value) ([]byte, bool) {
	if f, ok := v.(float64); ok {
		return binary.LittleEndian.AppendUint64(append(dst, 'f'), math.Float64bits(f)), true
	}
	j, err := json.Marshal(v)
	return append(append(dst, 'j'), j...), err == nil
}

// decodeValue is appendValue's inverse on a record the reader passed.
func decodeValue(b []byte) (v core.Value, err error) {
	if b[0] == 'f' {
		return math.Float64frombits(binary.LittleEndian.Uint64(b[1:])), nil
	}
	err = json.Unmarshal(b[1:], &v)
	return v, err
}

// CheckpointInfo is a checkpoint's header and record total.
type CheckpointInfo struct {
	// Seq numbers checkpoints; the WAL segment wal.<Seq>.log holds the
	// ops recorded after this checkpoint.
	Seq uint64
	// Now is the env clock at checkpoint time. Recovery advances the
	// virtual clock to it so probe backoffs and window cadences resume
	// on the pre-crash timeline.
	Now     clock.Time
	Records uint64
}

// recWriter encodes records into buf with the string table of one
// stream: a checkpoint's (ckptWriter) or a WAL segment's (walWriter).
type recWriter struct {
	buf []byte
	ids map[string]uint64
	reg string
}

func (w *recWriter) str(s string) {
	id, ok := w.ids[s]
	if !ok {
		id = uint64(len(w.ids))
		w.ids[s] = id
	}
	w.buf = binary.AppendUvarint(w.buf, id)
	if !ok {
		w.buf = append(binary.AppendUvarint(w.buf, uint64(len(s))), s...)
	}
}

// put appends one record, preceded by its registry when that changes.
func (w *recWriter) put(r *ckptRec) {
	if r.reg != w.reg {
		w.reg = r.reg
		w.buf = append(w.buf, recRegistry)
		w.str(r.reg)
	}
	w.buf = append(w.buf, r.tag)
	w.str(r.kind)
	w.buf = binary.AppendUvarint(w.buf, r.n)
	w.str(r.s)
	w.buf = append(binary.AppendUvarint(w.buf, uint64(len(r.b))), r.b...)
}

// ckptWriter streams a checkpoint into out, a frame per ckptChunk bytes
// of records. The first write error sticks and is returned by finish.
type ckptWriter struct {
	recWriter
	out     io.Writer
	frame   []byte
	records uint64
	err     error
}

func newCkptWriter(out io.Writer, seq uint64, now clock.Time) *ckptWriter {
	w := &ckptWriter{recWriter: recWriter{buf: make([]byte, 0, ckptChunk+1024), ids: make(map[string]uint64)}, out: out}
	_, w.err = out.Write(ckptMagic)
	w.buf = binary.AppendUvarint(binary.AppendUvarint(w.buf, seq), uint64(now))
	return w
}

// cut frames the buffered records in ckptChunk pieces — all of them
// when flush is set, else only whole chunks — so no frame exceeds what
// the reader accepts, however large one record is.
func (w *ckptWriter) cut(flush bool) {
	for len(w.buf) >= ckptChunk || flush && len(w.buf) > 0 {
		n := min(len(w.buf), ckptChunk)
		w.frame = appendFrame(w.frame[:0], w.buf[:n])
		if w.err == nil {
			_, w.err = w.out.Write(w.frame)
		}
		w.buf = w.buf[:copy(w.buf, w.buf[n:])]
	}
}

// put appends one record and frames the chunks it completes.
func (w *ckptWriter) put(r *ckptRec) {
	w.recWriter.put(r)
	w.records++
	w.cut(false)
}

// finish writes the trailer and reports the first write error.
func (w *ckptWriter) finish() error {
	w.cut(true)
	w.buf = binary.AppendUvarint(append(w.buf, recEnd), w.records)
	w.cut(true)
	return w.err
}

// recReader decodes a record stream: a checkpoint's, whole (next), or a
// WAL segment's, a frame at a time (decodeWAL). The slices it hands out
// alias its stream; the first defect sticks in err, which the caller
// wraps in errCorrupt.
type recReader struct {
	s    []byte // the unread stream
	strs []string
	reg  string
	sec  int // section of the last checkpoint record
	info CheckpointInfo
	done bool
	err  error
}

// newCkptReader verifies the magic and every frame of b and opens the
// stream they carry. It allocates one copy of b at most.
func newCkptReader(b []byte) *recReader {
	r := &recReader{}
	if !bytes.HasPrefix(b, ckptMagic) {
		if len(b) >= len(ckptMagic) && bytes.HasPrefix(b, ckptMagic[:6]) {
			r.fail("format version %q, this build reads %q", b[6], ckptMagic[6])
		}
		r.fail("bad magic")
		return r
	}
	r.s = make([]byte, 0, len(b))
	for b = b[len(ckptMagic):]; len(b) > 0; {
		p, n, err := readFrame(b)
		if err != nil || len(p) > ckptChunk {
			r.fail("torn or oversized frame %d bytes before the end", len(b))
			return r
		}
		r.s, b = append(r.s, p...), b[n:]
	}
	r.info.Seq, r.info.Now = r.uvarint(), clock.Time(r.uvarint())
	return r
}

func (r *recReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.s)
	if n <= 0 {
		r.fail("truncated or overlong varint %d bytes before the end", len(r.s))
		return 0
	}
	r.s = r.s[n:]
	return v
}

func (r *recReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.s)) {
		r.fail("%d-byte field %d bytes before the end", n, len(r.s))
		return nil
	}
	b := r.s[:n:n]
	r.s = r.s[n:]
	return b
}

func (r *recReader) str() string {
	id := r.uvarint()
	switch {
	case id < uint64(len(r.strs)):
		return r.strs[id]
	case id == uint64(len(r.strs)) && r.err == nil:
		r.strs = append(r.strs, string(r.bytes()))
		return r.strs[id]
	}
	r.fail("string %d of a table of %d", id, len(r.strs))
	return ""
}

// record decodes the next record, after the registry prefix that comes
// before it when the registry changes, into rec and returns its tag. The
// trailer's tag, recEnd, and a tag that names no record have no fields.
func (r *recReader) record(rec *ckptRec) uint64 {
	tag := r.uvarint()
	if tag == recRegistry {
		r.reg = r.str()
		tag = r.uvarint()
	}
	if tag == 0 || tag >= recRegistry && tag != recUnsub {
		return tag
	}
	rec.tag, rec.reg, rec.kind = byte(tag), r.reg, r.str()
	rec.n, rec.s, rec.b = r.uvarint(), r.str(), r.bytes()
	switch b := rec.b; {
	case tag == recItem && !(len(b) == 9 && b[0] == 'f' || len(b) > 1 && b[0] == 'j'),
		tag == recMig && len(b) != 1,
		tag == recSub && rec.n > math.MaxInt32:
		r.fail("malformed %+v", *rec)
	}
	return tag
}

// next decodes the next checkpoint record into rec, reporting false at
// the trailer or at the first defect (err tells which).
func (r *recReader) next(rec *ckptRec) bool {
	if r.err != nil || r.done {
		return false
	}
	switch tag := r.record(rec); {
	case tag == recEnd:
		if n := r.uvarint(); n != r.info.Records || len(r.s) > 0 {
			r.fail("trailer of %d records after %d, %d bytes left", n, r.info.Records, len(r.s))
		}
		r.done = true
	case tag >= uint64(len(recSection)) || recSection[tag] < max(r.sec, 1):
		r.fail("record tag %d in section %d", tag, r.sec)
	default:
		r.sec = recSection[tag]
		r.info.Records++
		return r.err == nil
	}
	return false
}

// check reads a copy of r — the receiver is a value — to the trailer and
// returns the header and record total, or the first defect.
func (r recReader) check() (*CheckpointInfo, error) {
	for rec := new(ckptRec); r.next(rec); {
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: checkpoint: %v", errCorrupt, r.err)
	}
	return &r.info, nil
}

// DecodeCheckpoint reads a whole checkpoint and returns its header and
// record total. Checkpoints are written atomically (temp-file +
// rename), so any defect is real corruption and reports errCorrupt; it
// never panics, and allocates in proportion to the input at most.
func DecodeCheckpoint(b []byte) (*CheckpointInfo, error) { return newCkptReader(b).check() }

// writeCheckpoint atomically replaces dir/checkpoint.db with the
// records fill puts: stream them over the spare checkpoint.db.tmp (the
// checkpoint before the current one), cut it to length and fsync it,
// rename it over the target, fsync the directory so the rename itself
// is durable. The outgoing checkpoint keeps a link under
// checkpoint.db.old across the rename and then becomes the next spare,
// so no rotation frees a fsynced file, which on a filesystem mounted
// with discard takes tens of milliseconds (DESIGN §13.2). Where hard
// links are refused the rename drops the old checkpoint instead.
func writeCheckpoint(dir string, seq uint64, now clock.Time, fill func(*ckptWriter)) error {
	path := filepath.Join(dir, "checkpoint.db")
	tmp, old := path+".tmp", path+".old"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: checkpoint temp: %w", err)
	}
	w := newCkptWriter(f, seq, now)
	fill(w)
	err = w.finish()
	if err == nil {
		var n int64
		if n, err = f.Seek(0, io.SeekCurrent); err == nil {
			err = f.Truncate(n)
		}
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: checkpoint close: %w", err)
	}
	// A checkpoint.db.old left by a crash is either a second link to the
	// current checkpoint or the one before it, which recovery never reads.
	os.Remove(old)
	linked := os.Link(path, old) == nil
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: checkpoint rename: %w", err)
	}
	if linked {
		os.Rename(old, tmp) // on failure the next checkpoint removes it
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer df.Close()
	df.Sync()
	return nil
}
