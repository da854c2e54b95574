package persist

import (
	"bytes"
	"fmt"
	"os"
)

// SyncPolicy selects when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record (default): a
	// crashed process loses at most the op being written, which the
	// framed replay drops as a torn tail.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS: faster appends, but a crash
	// may lose recent ops (replay still stops cleanly at the torn
	// tail). Checkpoints fsync regardless of the policy.
	SyncNone
)

// walWriter appends to one WAL segment: a checkpoint's record stream
// without magic, header or trailer, a CRC frame per structural op with
// its record and the registry prefix it needs. The segment has one
// string table: replay reads a prefix of whole frames, and a failed
// append stops journaling (Plane.failLocked), so no record read names a
// string of a frame not read.
type walWriter struct {
	recWriter
	frame []byte
	f     *os.File
	sync  SyncPolicy
	bytes int64
}

// openWAL opens (creating or truncating) the segment at path.
func openWAL(path string, sync SyncPolicy) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening WAL: %w", err)
	}
	return &walWriter{recWriter: recWriter{ids: make(map[string]uint64)}, f: f, sync: sync}, nil
}

// append writes r as one frame, fsyncing per the policy.
func (w *walWriter) append(r *ckptRec) error {
	w.buf = w.buf[:0]
	w.put(r)
	if len(w.buf) > maxFrame {
		// readFrame would refuse it: the record and everything after it
		// would be lost to replay as a torn tail.
		return fmt.Errorf("persist: WAL record of %d bytes exceeds the %d-byte frame limit", len(w.buf), maxFrame)
	}
	w.frame = appendFrame(w.frame[:0], w.buf)
	if _, err := w.f.Write(w.frame); err != nil {
		return fmt.Errorf("persist: WAL append: %w", err)
	}
	w.bytes += int64(len(w.frame))
	if w.sync == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("persist: WAL sync: %w", err)
		}
	}
	return nil
}

func (w *walWriter) close() error {
	if w.sync == SyncNone {
		// Best-effort flush on clean close; errors surface to Close.
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}

// ReplayWAL decodes the valid frame prefix of a WAL segment. A torn,
// corrupt or empty frame terminates the replay at the last whole record
// — the writer puts no empty frame, but zeros a crash leaves past the
// data pass the CRC as one — and truncated reports whether trailing
// bytes were dropped. It never fails: the worst input (zero-length,
// zero-filled, garbage, bit-flipped) yields an empty or partial prefix.
func ReplayWAL(b []byte) (payloads [][]byte, truncated bool) {
	for len(b) > 0 {
		payload, n, err := readFrame(b)
		if err != nil || len(payload) == 0 {
			return payloads, true
		}
		payloads = append(payloads, payload)
		b = b[n:]
	}
	return payloads, false
}

// decodeWAL decodes the frames ReplayWAL kept of segment seg, a record
// each. A frame that passed its CRC but is not one WAL record as the
// writer puts it — it does not re-encode to itself, say the JSON records
// of earlier builds — is errCorrupt naming the segment and the record:
// dropped as a torn tail, it would take every op after it along.
func decodeWAL(seg string, payloads [][]byte) ([]ckptRec, error) {
	var r recReader
	w := recWriter{ids: make(map[string]uint64)}
	recs := make([]ckptRec, len(payloads))
	for i, p := range payloads {
		r.s, w.buf = p, w.buf[:0]
		tag := r.record(&recs[i])
		w.put(&recs[i])
		if r.err != nil || tag != recDefine && tag != recSub && tag != recUnsub && tag != recMig ||
			tag == recSub && recs[i].n != 1 || !bytes.Equal(w.buf, p) {
			return nil, fmt.Errorf("%w: WAL segment %s, record %d: not one WAL record (tag %d)", errCorrupt, seg, i, tag)
		}
	}
	return recs, nil
}
