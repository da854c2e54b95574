package persist

import (
	"fmt"
	"os"

	"repro/internal/clock"
	"repro/internal/core"
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

// walRec is the JSON payload of one WAL frame. Structural ops are rare
// relative to value traffic, so a self-describing encoding wins over a
// packed one.
type walRec struct {
	Op     uint8  `json:"op"`
	Reg    string `json:"reg"`
	Kind   string `json:"kind"`
	To     uint8  `json:"to,omitempty"`
	Window int64  `json:"win,omitempty"`
	Codec  string `json:"codec,omitempty"`
	Args   string `json:"args,omitempty"`
}

func walRecOf(op core.JournalOp) walRec {
	return walRec{
		Op:     uint8(op.Op),
		Reg:    op.Registry,
		Kind:   string(op.Kind),
		To:     uint8(op.To),
		Window: int64(op.Window),
		Codec:  op.Codec,
		Args:   op.CodecArgs,
	}
}

func (r walRec) journalOp() core.JournalOp {
	return core.JournalOp{
		Op:        core.JournalOpKind(r.Op),
		Registry:  r.Reg,
		Kind:      core.Kind(r.Kind),
		To:        core.Mechanism(r.To),
		Window:    clock.Duration(r.Window),
		Codec:     r.Codec,
		CodecArgs: r.Args,
	}
}

// walWriter appends framed records to one WAL segment.
type walWriter struct {
	f     *os.File
	sync  SyncPolicy
	buf   []byte
	bytes int64
}

// openWAL opens (creating or truncating) the segment at path.
func openWAL(path string, sync SyncPolicy) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening WAL: %w", err)
	}
	return &walWriter{f: f, sync: sync}, nil
}

// append frames and writes one payload, fsyncing per the policy.
func (w *walWriter) append(payload []byte) error {
	if len(payload) > maxFrame {
		// readFrame would refuse it: the record and everything after it
		// would be lost to replay as a torn tail.
		return fmt.Errorf("persist: WAL record of %d bytes exceeds the %d-byte frame limit", len(payload), maxFrame)
	}
	w.buf = appendFrame(w.buf[:0], payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("persist: WAL append: %w", err)
	}
	w.bytes += int64(len(w.buf))
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

// ReplayWAL decodes the valid frame prefix of a WAL segment. A torn or
// corrupt frame terminates the replay at the last whole record —
// truncated reports whether trailing bytes were dropped. It never
// fails: the worst input (zero-length, garbage, bit-flipped) yields an
// empty or partial prefix.
func ReplayWAL(b []byte) (payloads [][]byte, truncated bool) {
	for len(b) > 0 {
		payload, n, err := readFrame(b)
		if err != nil {
			return payloads, true
		}
		payloads = append(payloads, payload)
		b = b[n:]
	}
	return payloads, false
}
