// Package persist is the durable metadata plane: a write-ahead log of
// structural operations plus periodic full-plane checkpoints, and the
// recovery path that rebuilds a crashed process's metadata topology and
// parks every checkpointed item in degraded mode (serving its pre-crash
// last-good value tagged core.ErrStale) until the existing
// probe/republish machinery warms it back to healthy.
//
// On-disk layout (all inside one directory):
//
//	checkpoint.db      magic + a sequence of CRC frames of at most 256 KiB
//	                   carrying one binary record stream that ends in a
//	                   trailer of record totals (temp+rename; checkpoint.go)
//	checkpoint.db.tmp  the checkpoint before it, never read: the spare the
//	                   next checkpoint overwrites in place and renames over
//	                   checkpoint.db, whose file then becomes the spare
//	                   (named checkpoint.db.old while the two swap)
//	wal.<seq>.log      CRC-framed binary records, one per structural op;
//	                   <seq> is the checkpoint sequence the segment follows
//
// Record framing is crash-safe: a torn tail (partial, empty or CRC-bad
// frame) ends replay at the last whole record; a whole frame that holds
// no WAL record fails recovery (ReplayWAL, decodeWAL).
package persist

import (
	"errors"

	"repro/internal/frame"
)

// errCorrupt reports persistence bytes that cannot be decoded: a bad
// magic, an absurd length, a CRC mismatch, or a truncation in a
// structure that is written atomically (checkpoints). WAL tails are the
// exception — a torn tail is the expected crash artifact and yields
// partial replay, not an error.
var errCorrupt = errors.New("persist: corrupt or truncated data")

// Records and checkpoint chunks use the module's one CRC framing
// (internal/frame).
const frameHeader = frame.Header

// maxFrame bounds a single frame payload; a length field beyond it is
// treated as corruption, not an allocation request.
const maxFrame = 64 << 20

// appendFrame appends the framed payload to dst and returns it.
func appendFrame(dst, payload []byte) []byte { return frame.Append(dst, payload) }

// readFrame decodes one frame at the start of b, returning the payload
// and the total bytes consumed. It returns errCorrupt for a frame that
// is torn (truncated header or body), oversized, or whose CRC does not
// match — callers decide whether that is a clean replay stop (WAL tail)
// or a hard error (checkpoint).
func readFrame(b []byte) (payload []byte, n int, err error) {
	if payload, n, err = frame.Decode(b, maxFrame); err != nil {
		err = errCorrupt
	}
	return payload, n, err
}
