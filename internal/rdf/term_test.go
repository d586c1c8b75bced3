package rdf

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermKinds(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind Kind
		iri  bool
		bl   bool
		lit  bool
	}{
		{"iri", IRI("http://example.org/a"), KindIRI, true, false, false},
		{"blank", Blank("b0"), KindBlank, false, true, false},
		{"plain literal", Literal("hi"), KindLiteral, false, false, true},
		{"lang literal", LangLiteral("hi", "EN"), KindLiteral, false, false, true},
		{"typed literal", Integer(7), KindLiteral, false, false, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.term.Kind(); got != tc.kind {
				t.Errorf("Kind() = %v, want %v", got, tc.kind)
			}
			if tc.term.IsIRI() != tc.iri || tc.term.IsBlank() != tc.bl || tc.term.IsLiteral() != tc.lit {
				t.Errorf("kind predicates mismatch for %v", tc.term)
			}
			if tc.term.IsZero() {
				t.Errorf("%v unexpectedly zero", tc.term)
			}
		})
	}
}

func TestZeroTerm(t *testing.T) {
	var z Term
	if !z.IsZero() || z.Kind() != KindInvalid {
		t.Fatalf("zero term should be invalid, got kind %v", z.Kind())
	}
	if z.IsName() {
		t.Fatal("zero term must not be a name")
	}
}

func TestTermIsName(t *testing.T) {
	if !IRI("x").IsName() || !Literal("x").IsName() {
		t.Error("IRIs and literals are names")
	}
	if Blank("x").IsName() {
		t.Error("blank nodes are not names")
	}
}

func TestLangTagNormalised(t *testing.T) {
	a := LangLiteral("chat", "FR")
	b := LangLiteral("chat", "fr")
	if a != b {
		t.Errorf("language tags should be case-insensitive: %v != %v", a, b)
	}
	if a.Lang() != "fr" {
		t.Errorf("Lang() = %q, want fr", a.Lang())
	}
	if a.Datatype() != RDFLangString {
		t.Errorf("Datatype() = %q, want rdf:langString", a.Datatype())
	}
}

func TestTypedLiteralNormalisesXSDString(t *testing.T) {
	if TypedLiteral("x", XSDString) != Literal("x") {
		t.Error("xsd:string typed literal should equal plain literal")
	}
	if TypedLiteral("x", "") != Literal("x") {
		t.Error("empty datatype should mean plain literal")
	}
	if Literal("x").Datatype() != XSDString {
		t.Errorf("plain literal datatype = %q, want xsd:string", Literal("x").Datatype())
	}
}

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{IRI("http://e/a"), "<http://e/a>"},
		{Blank("b1"), "_:b1"},
		{Literal("hi"), `"hi"`},
		{LangLiteral("hi", "en"), `"hi"@en`},
		{Integer(39), `"39"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{Literal("a\"b\nc"), `"a\"b\nc"`},
	}
	for _, tc := range tests {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.term.Kind(), got, tc.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	terms := []Term{
		IRI("a"), IRI("b"), Blank("a"), Blank("b"),
		Literal("a"), LangLiteral("a", "en"), Integer(1),
	}
	for i, a := range terms {
		if a.Compare(a) != 0 {
			t.Errorf("Compare(%v, %v) != 0", a, a)
		}
		for _, b := range terms[i+1:] {
			ab, ba := a.Compare(b), b.Compare(a)
			if ab == 0 && a != b {
				t.Errorf("distinct terms compare equal: %v %v", a, b)
			}
			if ab != -ba {
				t.Errorf("Compare not antisymmetric for %v, %v", a, b)
			}
		}
	}
	if IRI("z").Compare(Blank("a")) >= 0 {
		t.Error("IRIs must sort before blanks")
	}
	if Blank("z").Compare(Literal("a")) >= 0 {
		t.Error("blanks must sort before literals")
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{"", "plain", `quote " here`, "line\nbreak", "tab\there", `back\slash`, "\r mixed \t all \" of \\ them \n"}
	for _, s := range cases {
		if got := UnescapeLiteral(EscapeLiteral(s)); got != s {
			t.Errorf("round trip of %q = %q", s, got)
		}
	}
}

func TestEscapeRoundTripQuick(t *testing.T) {
	f := func(s string) bool { return UnescapeLiteral(EscapeLiteral(s)) == s }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnescapeUnknownEscapeKept(t *testing.T) {
	if got := UnescapeLiteral(`a\qb`); got != `a\qb` {
		t.Errorf("UnescapeLiteral kept unknown escape wrong: %q", got)
	}
}

func TestTripleValid(t *testing.T) {
	iri, bl, lit := IRI("http://e/x"), Blank("b"), Literal("v")
	tests := []struct {
		tr   Triple
		want bool
	}{
		{Triple{iri, iri, iri}, true},
		{Triple{bl, iri, lit}, true},
		{Triple{iri, iri, bl}, true},
		{Triple{lit, iri, iri}, false}, // literal subject
		{Triple{iri, bl, iri}, false},  // blank predicate
		{Triple{iri, lit, iri}, false}, // literal predicate
		{Triple{Term{}, iri, iri}, false},
	}
	for _, tc := range tests {
		if got := tc.tr.Valid(); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.tr, got, tc.want)
		}
	}
}

func TestTripleStringAndCompare(t *testing.T) {
	tr := NewTriple(IRI("http://e/s"), IRI("http://e/p"), Literal("o"))
	want := `<http://e/s> <http://e/p> "o" .`
	if tr.String() != want {
		t.Errorf("String() = %q, want %q", tr.String(), want)
	}
	tr2 := NewTriple(IRI("http://e/s"), IRI("http://e/p"), Literal("p"))
	if tr.Compare(tr2) >= 0 || tr2.Compare(tr) <= 0 || tr.Compare(tr) != 0 {
		t.Error("triple comparison is not a total order on this pair")
	}
}

func TestTripleHasBlank(t *testing.T) {
	iri := IRI("http://e/x")
	if (Triple{iri, iri, iri}).HasBlank() {
		t.Error("no blank expected")
	}
	if !(Triple{Blank("b"), iri, iri}).HasBlank() {
		t.Error("blank subject not detected")
	}
	if !(Triple{iri, iri, Blank("b")}).HasBlank() {
		t.Error("blank object not detected")
	}
}

// randomTerm produces an arbitrary valid term for property tests.
func randomTerm(r *rand.Rand) Term {
	switch r.Intn(4) {
	case 0:
		return IRI("http://e/" + randWord(r))
	case 1:
		return Blank("b" + randWord(r))
	case 2:
		return Literal(randWord(r))
	default:
		return LangLiteral(randWord(r), "en")
	}
}

func randWord(r *rand.Rand) string {
	n := 1 + r.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + r.Intn(26)))
	}
	return b.String()
}

func TestCompareConsistentWithEqualityQuick(t *testing.T) {
	cfg := &quick.Config{
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomTerm(r))
			vals[1] = reflect.ValueOf(randomTerm(r))
		},
	}
	f := func(a, b Term) bool {
		return (a.Compare(b) == 0) == (a == b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
