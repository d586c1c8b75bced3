package rdf

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randCodecTerm draws terms covering every encodable shape: IRIs, blanks,
// plain, typed and language-tagged literals, with values exercising empty
// strings, unicode, and the escape-sensitive characters.
func randCodecTerm(rng *rand.Rand) Term {
	values := []string{"", "a", "http://example.org/x", "héllo wörld ☃", "line\nbreak\tand \"quotes\" \\", "数据"}
	v := values[rng.Intn(len(values))]
	switch rng.Intn(5) {
	case 0:
		return IRI(v)
	case 1:
		return Blank(v)
	case 2:
		return Literal(v)
	case 3:
		return TypedLiteral(v, "http://www.w3.org/2001/XMLSchema#integer")
	default:
		return LangLiteral(v, "en-GB")
	}
}

func TestTermCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if err := quick.Check(func(pick uint32) bool {
		_ = pick
		in := randCodecTerm(rng)
		buf := AppendTerm(nil, in)
		out, rest, err := DecodeTerm(buf)
		if err != nil {
			t.Logf("decode error for %v: %v", in, err)
			return false
		}
		if len(rest) != 0 || out != in {
			t.Logf("round trip %v -> %v (rest %d)", in, out, len(rest))
			return false
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitRecordCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		in := CommitRecord{Epoch: rng.Uint64() >> 1}
		for i, n := 0, rng.Intn(8); i < n; i++ {
			in.Ops = append(in.Ops, Op{Del: rng.Intn(2) == 0, T: randTriple(rng)})
		}
		buf := in.AppendBinary(nil)
		out, err := DecodeCommitRecord(buf)
		if err != nil {
			t.Fatalf("decode: %v (record %+v)", err, in)
		}
		if out.Epoch != in.Epoch || len(out.Ops) != len(in.Ops) || (len(in.Ops) > 0 && !reflect.DeepEqual(out.Ops, in.Ops)) {
			t.Fatalf("round trip mismatch: in %+v out %+v", in, out)
		}
	}
}

// TestCodecRejectsCorruption pins the decoder contract the recovery path
// leans on: every truncation of a valid encoding, and a bit flip anywhere
// in it, must yield an error (or, for flips the payload codec cannot see,
// a changed decode — never a panic and never a silent misread of the
// original record).
func TestCodecRejectsCorruption(t *testing.T) {
	rec := CommitRecord{Epoch: 41, Ops: []Op{
		{T: Triple{S: IRI("http://e/s"), P: IRI("http://e/p"), O: LangLiteral("v", "en")}},
		{Del: true, T: Triple{S: Blank("b1"), P: IRI("http://e/q"), O: TypedLiteral("5", "http://www.w3.org/2001/XMLSchema#integer")}},
	}}
	buf := rec.AppendBinary(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeCommitRecord(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(buf))
		}
	}
	for i := range buf {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 1 << bit
			out, err := DecodeCommitRecord(mut)
			if err == nil && reflect.DeepEqual(out, rec) {
				t.Fatalf("bit flip at byte %d bit %d decoded back to the original record", i, bit)
			}
		}
	}
	if _, err := DecodeCommitRecord(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	} else if !errors.Is(err, ErrCodec) {
		t.Fatalf("corruption error not wrapped in ErrCodec: %v", err)
	}
}

// TestCodecRejectsInvalidShapes covers malformed inputs a fuzzer finds
// instantly: wild op counts, invalid kinds, flag bits on the wrong kinds,
// string lengths pointing past the payload.
func TestCodecRejectsInvalidShapes(t *testing.T) {
	cases := [][]byte{
		{},     // empty
		{0x01}, // epoch only
		{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge op count
		{0x01, 0x01, 0x07},                                     // bad op flag
		{0x01, 0x01, 0x00, 0x07},                               // term tag with invalid kind bits combo (datatype on IRI)
		{0x01, 0x01, 0x00, 0x0f},                               // both datatype and lang
		{0x01, 0x01, 0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 0x7f}, // string length past payload
	}
	for i, b := range cases {
		if _, err := DecodeCommitRecord(b); err == nil {
			t.Errorf("case %d: malformed record accepted", i)
		}
	}
	// a structurally well-formed record whose triple violates RDF typing
	// (literal subject) must be rejected too
	bad := binaryRecord(7, Op{T: Triple{S: Literal("x"), P: IRI("http://e/p"), O: IRI("http://e/o")}})
	if _, err := DecodeCommitRecord(bad); err == nil {
		t.Error("literal-subject triple accepted")
	}
}

// binaryRecord encodes without the Valid() guarantee AppendBinary callers
// normally uphold.
func binaryRecord(epoch uint64, ops ...Op) []byte {
	return CommitRecord{Epoch: epoch, Ops: ops}.AppendBinary(nil)
}
