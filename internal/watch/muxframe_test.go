package watch

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// TestMuxEventOf pins the value routing of the one Event → wire
// conversion: a finite numeric travels in Value, anything else —
// NaN and ±Inf included — as its string form in Raw, an error as its
// text, and a nil value as nothing.
func TestMuxEventOf(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   Event
		want MuxEvent
	}{
		{"numeric", Event{Registry: "n1", Kind: "val", Version: 7, Value: 3.5, Snapshot: true},
			MuxEvent{ID: 9, Version: 7, Snapshot: true, Numeric: true, Value: 3.5}},
		{"integer", Event{Version: 1, Value: int64(4)}, MuxEvent{ID: 9, Version: 1, Numeric: true, Value: 4}},
		{"string", Event{Version: 2, Value: "a,b", Coalesced: true}, MuxEvent{ID: 9, Version: 2, Coalesced: true, Raw: "a,b"}},
		{"error", Event{Version: 3, Err: errors.New("boom")}, MuxEvent{ID: 9, Version: 3, Err: "boom"}},
		{"stale value", Event{Version: 4, Value: 1.5, Err: errors.New("stale")},
			MuxEvent{ID: 9, Version: 4, Numeric: true, Value: 1.5, Err: "stale"}},
		{"nil value", Event{Version: 5}, MuxEvent{ID: 9, Version: 5}},
		{"NaN", Event{Version: 6, Value: math.NaN()}, MuxEvent{ID: 9, Version: 6, Raw: "NaN"}},
		{"+Inf", Event{Version: 7, Value: math.Inf(1)}, MuxEvent{ID: 9, Version: 7, Raw: "+Inf"}},
		{"-Inf", Event{Version: 8, Value: math.Inf(-1)}, MuxEvent{ID: 9, Version: 8, Raw: "-Inf"}},
	} {
		if got := muxEventOf(9, tc.ev); got != tc.want {
			t.Errorf("%s: muxEventOf = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestFrameRoundTrip sends events through a mux frame and back:
// muxEventOf → AppendMuxEvents → DecodeMuxFrame → MuxEvent.Event keeps
// version, flags, value and error text, rebound to the item the watch
// id was registered under.
func TestFrameRoundTrip(t *testing.T) {
	in := []Event{
		{Version: 42, Value: 1.25, Snapshot: true},
		{Version: 43, Value: "a,b", Coalesced: true},
		{Version: 44, Err: errors.New("compute timeout")},
		{Version: 45, Value: 2.5, Err: errors.New("stale")},
		{Version: 46},
		{Version: 47, Value: math.Inf(1)},
	}
	wire := make([]MuxEvent, len(in))
	for i, ev := range in {
		wire[i] = muxEventOf(uint64(i+1), ev)
	}
	b := AppendMuxEvents(nil, wire)
	got, _, n, err := DecodeMuxFrame(b)
	if err != nil || n != len(b) || len(got) != len(in) {
		t.Fatalf("DecodeMuxFrame = %d events, n=%d of %d, err=%v", len(got), n, len(b), err)
	}
	for i, me := range got {
		want := in[i]
		want.Registry, want.Kind = "n1", "val"
		if x, ok := want.Value.(float64); ok && math.IsInf(x, 0) {
			want.Value = "+Inf" // non-finite values come back as their text
		}
		ev := me.Event("n1", "val")
		if me.ID != uint64(i+1) || ev.Registry != "n1" || ev.Kind != "val" || ev.Version != want.Version ||
			ev.Snapshot != want.Snapshot || ev.Coalesced != want.Coalesced || ev.Value != want.Value {
			t.Errorf("event %d came back as %+v (id %d), want %+v", i, ev, me.ID, want)
		}
		if (ev.Err == nil) != (want.Err == nil) || ev.Err != nil && ev.Err.Error() != want.Err.Error() {
			t.Errorf("event %d error = %v, want %v", i, ev.Err, want.Err)
		}
	}
}

func TestMuxFrameRoundTrip(t *testing.T) {
	evs := []MuxEvent{
		{ID: 1, Version: 7, Numeric: true, Value: 3.25},
		{ID: 2, Version: 9, Snapshot: true, Coalesced: true, Raw: "hello"},
		{ID: 300, Version: 1 << 40, Err: "compute timeout"},
		{ID: 4, Version: 2},
		{ID: 5, Version: 3, Numeric: true, Value: -0.5, Err: "stale"},
	}
	b := AppendMuxEvents(nil, evs)
	got, heartbeat, n, err := DecodeMuxFrame(b)
	if err != nil || heartbeat || n != len(b) {
		t.Fatalf("DecodeMuxFrame = hb=%v n=%d err=%v", heartbeat, n, err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, evs)
	}

	// The io.Reader path decodes the same bytes, one frame per call.
	two := appendMuxHeartbeat(b) // events frame then heartbeat frame
	r := bytes.NewReader(two)
	got2, hb2, err := readMuxFrame(r)
	if err != nil || hb2 || !reflect.DeepEqual(got2, evs) {
		t.Fatalf("readMuxFrame events = %+v hb=%v err=%v", got2, hb2, err)
	}
	if _, hb3, err := readMuxFrame(r); err != nil || !hb3 {
		t.Fatalf("readMuxFrame heartbeat = hb=%v err=%v", hb3, err)
	}
	if _, _, err := readMuxFrame(r); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}
}

func TestMuxFrameNonFiniteReroutes(t *testing.T) {
	// Encoding is total: NaN/Inf numerics travel as Raw strings, so the
	// strict decoder never sees our own output as corrupt.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := AppendMuxEvents(nil, []MuxEvent{{ID: 1, Version: 2, Numeric: true, Value: v}})
		got, _, _, err := DecodeMuxFrame(b)
		if err != nil {
			t.Fatalf("decode(%v): %v", v, err)
		}
		if got[0].Numeric || got[0].Raw == "" {
			t.Fatalf("non-finite %v encoded as %+v; want raw", v, got[0])
		}
	}
}

func TestMuxFrameTornAndCorrupt(t *testing.T) {
	b := AppendMuxEvents(nil, []MuxEvent{{ID: 1, Version: 2, Numeric: true, Value: 1}})

	// Every strict prefix is torn: the byte-slice decoder refuses it
	// and the reader path reports an unexpected EOF (or a clean EOF at
	// offset 0 — a frame boundary).
	for cut := 0; cut < len(b); cut++ {
		if _, _, _, err := DecodeMuxFrame(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		_, _, err := readMuxFrame(bytes.NewReader(b[:cut]))
		switch {
		case cut == 0 && err != io.EOF:
			t.Fatalf("empty stream = %v, want io.EOF", err)
		case cut > 0 && err != io.ErrUnexpectedEOF && !errors.Is(err, errMuxCorrupt):
			t.Fatalf("torn frame at %d = %v", cut, err)
		}
	}

	// Any single bit flip must be rejected (CRC) or decode to a valid
	// frame of different bytes — never panic. Flips confined to the
	// payload must always be caught by the CRC.
	for i := 8; i < len(b); i++ {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x01
		if _, _, _, err := DecodeMuxFrame(mut); !errors.Is(err, errMuxCorrupt) {
			t.Fatalf("payload bit flip at %d slipped past the CRC: %v", i, err)
		}
	}

	// Heartbeat with trailing garbage, empty event list, unknown type.
	for _, payload := range [][]byte{
		{muxPayloadHeartbeat, 0x00},
		{muxPayloadEvents},
		{'Z'},
		{},
	} {
		if _, _, err := decodeMuxPayload(payload); !errors.Is(err, errMuxCorrupt) {
			t.Fatalf("payload %v accepted (err=%v)", payload, err)
		}
	}
}

// FuzzMuxFrame pins the mux codec's safety and canonicalization: no
// panic on arbitrary input; any accepted frame re-encodes to a frame
// that decodes to the same events (semantic fixed point) and whose
// second re-encode is byte-identical (the encoder output is
// canonical).
func FuzzMuxFrame(f *testing.F) {
	f.Add(AppendMuxEvents(nil, []MuxEvent{{ID: 1, Version: 2, Numeric: true, Value: 3.5}}))
	f.Add(AppendMuxEvents(nil, []MuxEvent{
		{ID: 9, Version: 1, Snapshot: true, Raw: "r"},
		{ID: 10, Version: 77, Coalesced: true, Err: "e"},
	}))
	f.Add(appendMuxHeartbeat(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, heartbeat, _, err := DecodeMuxFrame(data)
		if err != nil {
			return // rejected input: only obligation is not panicking
		}
		var enc1 []byte
		if heartbeat {
			enc1 = appendMuxHeartbeat(nil)
		} else {
			enc1 = AppendMuxEvents(nil, evs)
		}
		evs2, hb2, n2, err := DecodeMuxFrame(enc1)
		if err != nil || hb2 != heartbeat || n2 != len(enc1) {
			t.Fatalf("re-decode failed: hb=%v n=%d err=%v", hb2, n2, err)
		}
		if !reflect.DeepEqual(evs2, evs) {
			t.Fatalf("semantic fixed point violated:\n first %+v\nsecond %+v", evs, evs2)
		}
		var enc2 []byte
		if hb2 {
			enc2 = appendMuxHeartbeat(nil)
		} else {
			enc2 = AppendMuxEvents(nil, evs2)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encode unstable:\n first %x\nsecond %x", enc1, enc2)
		}
	})
}
