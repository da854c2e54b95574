package frame

import (
	"bytes"
	"io"
	"testing"
)

const testMax = 1 << 10

func TestAppendInPlaceMatchesAppend(t *testing.T) {
	// A payload built piecewise between Begin and Finish frames to the
	// same bytes as Append of the whole, behind an existing prefix.
	prefix := []byte("magic")
	want := Append(bytes.Clone(prefix), []byte("hello, world"))
	got := Begin(bytes.Clone(prefix))
	got = append(got, "hello, "...)
	got = append(got, "world"...)
	got = Finish(got, len(prefix))
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place frame %x, Append %x", got, want)
	}
	p, n, err := Decode(got[len(prefix):], testMax)
	if err != nil || string(p) != "hello, world" || n != len(got)-len(prefix) {
		t.Fatalf("Decode = %q, %d, %v", p, n, err)
	}
}

func TestReadStreamEnds(t *testing.T) {
	b := Append(Append(nil, []byte("a")), nil) // a one-byte and an empty frame
	r := bytes.NewReader(b)
	if p, err := Read(r, testMax); err != nil || string(p) != "a" {
		t.Fatalf("first frame = %q, %v", p, err)
	}
	if p, err := Read(r, testMax); err != nil || len(p) != 0 {
		t.Fatalf("empty frame = %q, %v", p, err)
	}
	if _, err := Read(r, testMax); err != io.EOF {
		t.Fatalf("boundary = %v, want io.EOF", err)
	}
	for cut := 1; cut < Header+1; cut++ { // every tear inside the first frame
		if _, err := Read(bytes.NewReader(b[:cut]), testMax); err != io.ErrUnexpectedEOF {
			t.Fatalf("tear at %d = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := Read(bytes.NewReader(Append(nil, make([]byte, testMax+1))), testMax); err != ErrCorrupt {
		t.Fatalf("oversized frame = %v, want ErrCorrupt", err)
	}
}

// TestReadRefusesFlippedPayloadByte flips each payload byte of a frame
// in turn: Read must report ErrCorrupt, never the damaged payload.
func TestReadRefusesFlippedPayloadByte(t *testing.T) {
	b := Append(nil, []byte("metadata"))
	for i := Header; i < len(b); i++ {
		bad := bytes.Clone(b)
		bad[i] ^= 0x01
		if p, err := Read(bytes.NewReader(bad), testMax); err != ErrCorrupt {
			t.Fatalf("payload byte %d flipped: Read = %q, %v; want ErrCorrupt", i-Header, p, err)
		}
	}
}

// FuzzFrame pins the header codec: no panic and no payload above the
// caller's bound on arbitrary input; Decode and Read agree; an accepted
// frame re-frames to the bytes it was decoded from.
func FuzzFrame(f *testing.F) {
	f.Add(Append(nil, []byte("payload")))
	f.Add(Append(Append(nil, nil), []byte("second")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(Append(nil, make([]byte, testMax+1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := Decode(data, testMax)
		rp, rerr := Read(bytes.NewReader(data), testMax)
		if err != nil {
			if rerr == nil {
				t.Fatalf("Decode refused what Read accepted as %q", rp)
			}
			return
		}
		if len(p) > testMax || n != Header+len(p) {
			t.Fatalf("accepted %d payload bytes in a %d-byte frame (max %d)", len(p), n, testMax)
		}
		if rerr != nil || !bytes.Equal(rp, p) {
			t.Fatalf("Read = %q, %v; Decode = %q", rp, rerr, p)
		}
		if re := Append(nil, p); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-framed %x, decoded from %x", re, data[:n])
		}
	})
}
