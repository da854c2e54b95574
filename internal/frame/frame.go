// Package frame is the one CRC framing every byte stream in this
// module uses — WAL records, checkpoint chunks (internal/persist) and
// mux transport frames (internal/watch): a 4-byte little-endian payload
// length, a 4-byte little-endian IEEE CRC32 of the payload, then the
// payload. What a damaged frame *means* (a clean replay stop, a hard
// error, a redial) is the caller's decision; each caller also passes
// its own payload bound, so a corrupt length field is never an
// allocation request.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// Header is the size of the length+CRC prefix.
const Header = 8

// ErrCorrupt reports a frame that is torn (shorter than its header or
// its length field says), longer than the caller's bound, or whose CRC
// does not match. Callers translate it to their own sentinel.
var ErrCorrupt = errors.New("frame: torn, oversized or CRC mismatch")

// Begin reserves a header at the end of dst. The caller appends the
// payload after it and seals the frame with Finish(dst, off), where
// off is len(dst) before Begin — so a payload built from many pieces
// is framed in place, without a scratch copy.
func Begin(dst []byte) []byte {
	return append(dst, make([]byte, Header)...)
}

// Finish patches the header reserved at off with the length and CRC of
// everything appended after it.
func Finish(dst []byte, off int) []byte {
	payload := dst[off+Header:]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// Append appends payload to dst as one frame.
func Append(dst, payload []byte) []byte {
	return Finish(append(Begin(dst), payload...), len(dst))
}

// Decode decodes the frame at the start of b, returning its payload (a
// subslice of b) and the total bytes consumed, or ErrCorrupt.
func Decode(b []byte, max uint32) (payload []byte, n int, err error) {
	if len(b) < Header {
		return nil, 0, ErrCorrupt
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	if ln > max || int(ln) > len(b)-Header {
		return nil, 0, ErrCorrupt
	}
	payload = b[Header : Header+int(ln)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, ErrCorrupt
	}
	return payload, Header + int(ln), nil
}

// Read reads one frame from r. io.EOF means the stream ended on a frame
// boundary; a stream that ends inside a frame is io.ErrUnexpectedEOF,
// and a length above max or a CRC mismatch is ErrCorrupt.
func Read(r io.Reader, max uint32) ([]byte, error) {
	var hdr [Header]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	if ln > max {
		return nil, ErrCorrupt
	}
	payload := make([]byte, ln)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}
