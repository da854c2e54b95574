package watch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/frame"
)

// The mux wire protocol batches many watch events into one CRC-framed
// binary write. Framing is internal/frame's: 4-byte little-endian
// payload length, 4-byte little-endian IEEE CRC32 of the payload, then
// the payload. The payload's first byte is its type:
//
//	'E'  one or more events, back to back:
//	       uvarint watch id | uvarint version | flags byte
//	       | 8B LE float64        (iff flags&muxNumeric)
//	       | uvarint len + bytes  (iff flags&muxRaw)
//	       | uvarint len + bytes  (iff flags&muxErr)
//	'H'  heartbeat, no body
//
// Registry and kind never travel per event — the watch id was bound to
// them at Add time, which is what makes a 10k-watch burst amortize to a
// few bytes per event.
const (
	muxPayloadEvents    = 'E'
	muxPayloadHeartbeat = 'H'

	muxSnapshot  = 1 << 0
	muxCoalesced = 1 << 1
	muxNumeric   = 1 << 2
	muxRaw       = 1 << 3
	muxErr       = 1 << 4
	muxFlagsMask = muxSnapshot | muxCoalesced | muxNumeric | muxRaw | muxErr

	// maxMuxFrame bounds one frame payload; a longer length field is
	// corruption, not an allocation request.
	maxMuxFrame = 16 << 20
)

// errMuxCorrupt reports mux transport bytes that cannot be decoded: a
// torn frame, a CRC mismatch, or a payload violating the grammar above.
var errMuxCorrupt = errors.New("watch: corrupt mux frame")

// MuxEvent is the wire form of one multiplexed event: an Event with
// its registry/kind replaced by the session-scoped watch id.
type MuxEvent struct {
	ID        uint64
	Version   uint64
	Snapshot  bool
	Coalesced bool
	Numeric   bool
	Value     float64
	Raw       string
	Err       string
}

// muxEventOf converts an in-process event for watch id to wire form:
// a finite numeric value travels in Value with Numeric set, every other
// value (NaN and ±Inf included, which the strict decoder refuses as
// numerics) as its string form in Raw, and an error as its text in Err.
func muxEventOf(id uint64, ev Event) MuxEvent {
	me := MuxEvent{ID: id, Version: ev.Version, Snapshot: ev.Snapshot, Coalesced: ev.Coalesced}
	if ev.Err != nil {
		me.Err = ev.Err.Error()
	}
	if ev.Value == nil {
		return me
	}
	if x, err := core.Float(ev.Value); err == nil && !math.IsNaN(x) && !math.IsInf(x, 0) {
		me.Numeric, me.Value = true, x
	} else {
		me.Raw = fmt.Sprint(ev.Value)
	}
	return me
}

// Event is muxEventOf's inverse: the in-process event for the
// (registry, kind) the watch id was registered under. A numeric value
// comes back as float64, any other as its string form, an error as its
// text.
func (me MuxEvent) Event(registry string, kind core.Kind) Event {
	ev := Event{Registry: registry, Kind: kind, Version: me.Version, Snapshot: me.Snapshot, Coalesced: me.Coalesced}
	if me.Err != "" {
		ev.Err = errors.New(me.Err)
	}
	if me.Numeric {
		ev.Value = me.Value
	} else if me.Raw != "" {
		ev.Value = me.Raw
	}
	return ev
}

// appendMuxEvent appends one event body (no framing) to dst. Encoding
// is total: a non-finite numeric in a hand-built MuxEvent is rerouted
// to Raw, so the strict decoder's NaN/Inf rejection can never hit our
// own output.
func appendMuxEvent(dst []byte, me MuxEvent) []byte {
	if me.Numeric && (math.IsNaN(me.Value) || math.IsInf(me.Value, 0)) {
		me.Raw = fmt.Sprint(me.Value)
		me.Numeric = false
		me.Value = 0
	}
	dst = binary.AppendUvarint(dst, me.ID)
	dst = binary.AppendUvarint(dst, me.Version)
	var flags byte
	if me.Snapshot {
		flags |= muxSnapshot
	}
	if me.Coalesced {
		flags |= muxCoalesced
	}
	if me.Numeric {
		flags |= muxNumeric
	}
	if me.Raw != "" {
		flags |= muxRaw
	}
	if me.Err != "" {
		flags |= muxErr
	}
	dst = append(dst, flags)
	if me.Numeric {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(me.Value))
		dst = append(dst, b[:]...)
	}
	if me.Raw != "" {
		dst = binary.AppendUvarint(dst, uint64(len(me.Raw)))
		dst = append(dst, me.Raw...)
	}
	if me.Err != "" {
		dst = binary.AppendUvarint(dst, uint64(len(me.Err)))
		dst = append(dst, me.Err...)
	}
	return dst
}

// AppendMuxEvents appends one framed 'E' payload carrying all of evs —
// the batch write that amortizes framing and syscall cost across many
// events. With no events it appends nothing.
func AppendMuxEvents(dst []byte, evs []MuxEvent) []byte {
	if len(evs) == 0 {
		return dst
	}
	off := len(dst)
	dst = append(frame.Begin(dst), muxPayloadEvents)
	for _, me := range evs {
		dst = appendMuxEvent(dst, me)
	}
	return frame.Finish(dst, off)
}

// appendMuxHeartbeat appends one framed 'H' payload.
func appendMuxHeartbeat(dst []byte) []byte {
	return frame.Append(dst, []byte{muxPayloadHeartbeat})
}

// decodeMuxEvent decodes one event body at the start of b, returning
// the bytes consumed. The grammar is strict — unknown flag bits, a
// non-finite numeric, a numeric-and-raw combination, or a truncated
// field are all errMuxCorrupt — so that accepted inputs re-encode to a
// stable canonical form (pinned by FuzzMuxFrame).
func decodeMuxEvent(b []byte) (MuxEvent, int, error) {
	var me MuxEvent
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return me, 0, errMuxCorrupt
	}
	off := n
	ver, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return me, 0, errMuxCorrupt
	}
	off += n
	if off >= len(b) {
		return me, 0, errMuxCorrupt
	}
	flags := b[off]
	off++
	if flags&^byte(muxFlagsMask) != 0 {
		return me, 0, errMuxCorrupt
	}
	me.ID = id
	me.Version = ver
	me.Snapshot = flags&muxSnapshot != 0
	me.Coalesced = flags&muxCoalesced != 0
	if flags&muxNumeric != 0 {
		if flags&muxRaw != 0 || len(b)-off < 8 {
			return me, 0, errMuxCorrupt
		}
		me.Numeric = true
		me.Value = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		if math.IsNaN(me.Value) || math.IsInf(me.Value, 0) {
			return me, 0, errMuxCorrupt
		}
		off += 8
	}
	if flags&muxRaw != 0 {
		s, n, err := decodeMuxString(b[off:])
		if err != nil {
			return me, 0, err
		}
		me.Raw = s
		off += n
	}
	if flags&muxErr != 0 {
		s, n, err := decodeMuxString(b[off:])
		if err != nil {
			return me, 0, err
		}
		me.Err = s
		off += n
	}
	return me, off, nil
}

// decodeMuxString decodes a uvarint-length-prefixed string. A zero
// length is corrupt: the encoder only emits a string field when it is
// non-empty (the flag bit is the presence marker).
func decodeMuxString(b []byte) (string, int, error) {
	ln, n := binary.Uvarint(b)
	if n <= 0 || ln == 0 || ln > uint64(len(b)-n) {
		return "", 0, errMuxCorrupt
	}
	return string(b[n : n+int(ln)]), n + int(ln), nil
}

// decodeMuxPayload decodes one frame payload (header already stripped
// and CRC-verified). It returns the events for an 'E' payload, or
// heartbeat == true for an 'H'. Trailing garbage, an empty event list,
// and unknown payload types are all errMuxCorrupt.
func decodeMuxPayload(payload []byte) (evs []MuxEvent, heartbeat bool, err error) {
	if len(payload) == 0 {
		return nil, false, errMuxCorrupt
	}
	switch payload[0] {
	case muxPayloadHeartbeat:
		if len(payload) != 1 {
			return nil, false, errMuxCorrupt
		}
		return nil, true, nil
	case muxPayloadEvents:
		b := payload[1:]
		if len(b) == 0 {
			return nil, false, errMuxCorrupt
		}
		for len(b) > 0 {
			me, n, err := decodeMuxEvent(b)
			if err != nil {
				return nil, false, err
			}
			evs = append(evs, me)
			b = b[n:]
		}
		return evs, false, nil
	default:
		return nil, false, errMuxCorrupt
	}
}

// DecodeMuxFrame decodes one whole frame at the start of b, returning
// the bytes consumed — the byte-slice twin of readMuxFrame, used by
// tests and the fuzz harness.
func DecodeMuxFrame(b []byte) (evs []MuxEvent, heartbeat bool, n int, err error) {
	payload, n, err := frame.Decode(b, maxMuxFrame)
	if err != nil {
		return nil, false, 0, errMuxCorrupt
	}
	evs, heartbeat, err = decodeMuxPayload(payload)
	if err != nil {
		return nil, false, 0, err
	}
	return evs, heartbeat, n, nil
}

// readMuxFrame reads one whole frame from r. io.EOF on a frame
// boundary passes through as io.EOF (clean end of stream); a tear
// inside a frame is io.ErrUnexpectedEOF, and a CRC/grammar violation
// is errMuxCorrupt.
func readMuxFrame(r io.Reader) (evs []MuxEvent, heartbeat bool, err error) {
	payload, err := frame.Read(r, maxMuxFrame)
	if err == frame.ErrCorrupt {
		return nil, false, errMuxCorrupt
	}
	if err != nil {
		return nil, false, err
	}
	return decodeMuxPayload(payload)
}

// muxAdd is one watch registration in a control request.
type muxAdd struct {
	ID       uint64 `json:"id"`
	Registry string `json:"registry"`
	Kind     string `json:"kind"`
	Since    uint64 `json:"since,omitempty"`
}

// muxControl is the body of POST /mux/watch: batched adds and removes
// applied to one session.
type muxControl struct {
	Add    []muxAdd `json:"add,omitempty"`
	Remove []uint64 `json:"remove,omitempty"`
}

// muxControlResult reports per-id registration errors; absent ids
// succeeded.
type muxControlResult struct {
	Errors map[uint64]string `json:"errors,omitempty"`
}
