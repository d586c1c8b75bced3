package wal

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/rdf"
)

// segmentBytes frames records the way the WAL writes them, for seeds.
func segmentBytes(recs ...rdf.CommitRecord) []byte {
	out := []byte(magic)
	for _, r := range recs {
		payload := r.AppendBinary(nil)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		out = append(out, hdr[:]...)
		out = append(out, payload...)
	}
	return out
}

// FuzzWALDecode drives the segment scanner with arbitrary bytes. The
// contract under fuzz: never panic, report a valid prefix that rescans to
// the identical record sequence with no error, and keep epochs strictly
// increasing past prevEpoch.
func FuzzWALDecode(f *testing.F) {
	t1 := rdf.Triple{S: rdf.IRI("http://e/s"), P: rdf.IRI("http://e/p"), O: rdf.Literal("v")}
	t2 := rdf.Triple{S: rdf.Blank("b"), P: rdf.IRI("http://e/q"), O: rdf.LangLiteral("x", "en")}
	valid := segmentBytes(
		rdf.CommitRecord{Epoch: 1, Ops: []rdf.Op{{T: t1}}},
		rdf.CommitRecord{Epoch: 3, Ops: []rdf.Op{{T: t2}, {Del: true, T: t1}}},
	)
	f.Add(valid, uint64(0))
	f.Add(valid[:len(valid)-3], uint64(0)) // torn payload
	f.Add(valid[:len(magic)+5], uint64(0)) // torn header
	f.Add([]byte(magic), uint64(0))        // empty segment
	f.Add([]byte("not a segment at all"), uint64(0))
	f.Add(valid, uint64(2)) // prevEpoch rejects first record
	dup := append(append([]byte{}, valid...), valid[len(magic):]...)
	f.Add(dup, uint64(0)) // duplicated records: epoch regression must stop the scan
	flip := append([]byte{}, valid...)
	flip[len(valid)/2] ^= 0x10
	f.Add(flip, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, prevEpoch uint64) {
		var seen []rdf.CommitRecord
		validLen, last, n, err := scanSegment(data, prevEpoch, 0, func(r rdf.CommitRecord) error {
			seen = append(seen, r)
			return nil
		})
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d out of range", validLen)
		}
		if n != len(seen) {
			t.Fatalf("count %d but emitted %d", n, len(seen))
		}
		prev := prevEpoch
		for _, r := range seen {
			if r.Epoch <= prev {
				t.Fatalf("epoch %d not after %d", r.Epoch, prev)
			}
			prev = r.Epoch
		}
		if len(seen) > 0 && last != seen[len(seen)-1].Epoch {
			t.Fatalf("last %d != final record %d", last, seen[len(seen)-1].Epoch)
		}
		if err == nil && validLen != len(data) {
			t.Fatalf("clean scan but validLen %d != %d", validLen, len(data))
		}
		if err != nil && validLen >= len(magic) {
			// The reported prefix must rescan cleanly to the same records.
			var again []rdf.CommitRecord
			_, _, _, rerr := scanSegment(data[:validLen], prevEpoch, 0, func(r rdf.CommitRecord) error {
				again = append(again, r)
				return nil
			})
			if rerr != nil {
				t.Fatalf("valid prefix does not rescan: %v", rerr)
			}
			if len(again) != len(seen) {
				t.Fatalf("prefix rescan yields %d records, first scan %d", len(again), len(seen))
			}
		}
	})
}
