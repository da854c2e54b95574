package persist

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// Fuzz targets for the two decode surfaces. The contract under fuzzing:
// arbitrary bytes never panic; WAL replay always yields a valid prefix
// (every returned payload re-frames to a prefix of the input) whose
// records either re-encode to the same bytes or report errCorrupt;
// checkpoint decode either round-trips or reports errCorrupt.

func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	seg := walSegment(f, sampleWAL())
	f.Add(seg)
	f.Add(seg[:len(seg)-1]) // torn tail
	two := appendFrame(appendFrame(nil, []byte("a")), []byte("bb"))
	f.Add(two)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})    // absurd length
	f.Add(append(bytes.Clone(seg), make([]byte, 16)...)) // zero-filled tail
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, truncated := ReplayWAL(data)
		// Prefix property: re-framing the payloads reproduces a prefix
		// of the input, and truncated is exact.
		var reframed []byte
		for _, p := range payloads {
			reframed = appendFrame(reframed, p)
		}
		if !bytes.HasPrefix(data, reframed) {
			t.Fatalf("replayed payloads are not an input prefix (%d bytes vs %d input)",
				len(reframed), len(data))
		}
		if truncated != (len(reframed) != len(data)) {
			t.Fatalf("truncated = %v with %d of %d bytes consumed",
				truncated, len(reframed), len(data))
		}
		// A prefix that decodes is one the writer puts: each record
		// re-encodes, with the segment's string table, to its frame.
		recs, err := decodeWAL("fuzz", payloads)
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("decode error %v does not wrap errCorrupt", err)
			}
			return
		}
		e := recWriter{ids: make(map[string]uint64)}
		for i := range recs {
			e.buf = e.buf[:0]
			e.put(&recs[i])
			if !bytes.Equal(e.buf, payloads[i]) {
				t.Fatalf("record %d %+v re-encodes to %x, the frame holds %x", i, recs[i], e.buf, payloads[i])
			}
		}
	})
}

func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MDCKPT1\n"))
	enc := encodeRecs(CheckpointInfo{Seq: 1, Now: 42}, sampleRecs())
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(append(append([]byte{}, enc...), 0))
	f.Add(encodeRecs(CheckpointInfo{}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Allocation is bounded by the input: every decoded record owns
		// at least one input byte, no length field is trusted beyond the
		// bytes that are there.
		var recs []ckptRec
		rd := newCkptReader(data)
		for rec := (ckptRec{}); rd.next(&rec); {
			recs = append(recs, rec)
		}
		info, err := DecodeCheckpoint(data)
		if (err == nil) != (rd.err == nil) {
			t.Fatalf("DecodeCheckpoint says %v, the reader %v", err, rd.err)
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("decode error %v does not wrap errCorrupt", err)
			}
			return
		}
		if *info != rd.info || uint64(len(recs)) != info.Records {
			t.Fatalf("totals %+v, reader %+v with %d records", info, rd.info, len(recs))
		}
		// A successful decode re-encodes and decodes to the same records
		// (full structural round trip).
		enc := encodeRecs(*info, recs)
		info2, recs2, err := decodeRecs(enc)
		if err != nil {
			t.Fatalf("decode of re-encode: %v", err)
		}
		if info2 != *info || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("round trip drifted:\n%+v %+v\n%+v %+v", info, recs, info2, recs2)
		}
	})
}
