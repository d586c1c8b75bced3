package sparql

import "testing"

// FuzzSPARQLRoundTrip drives the lexer and parser with arbitrary text, and
// holds whatever parses to the wire contract the mediator relies on: it
// ships String() of the probe ASTs it builds, so serialising a parsed
// query and parsing the text again must reproduce the same query. The
// namespace table is dropped before serialising, so every IRI is written
// in full, as the mediator writes it. The seed corpus under testdata holds
// a VALUES probe with UNDEF, FILTER, OPTIONAL, UNION, PREFIX with LIMIT,
// ASK, and a rewriting variable (?g1·z) that exercises VARNAME's U+00B7.
func FuzzSPARQLRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text, nil)
		if err != nil {
			return
		}
		q.Ns = nil
		wire := q.String()
		q2, err := Parse(wire, nil)
		if err != nil {
			t.Fatalf("serialised query does not parse: %v\ninput: %q\nwire:  %q", err, text, wire)
		}
		q2.Ns = nil
		if again := q2.String(); again != wire {
			t.Fatalf("round trip is not a fixpoint:\ninput: %q\nwire:  %q\nagain: %q", text, wire, again)
		}
	})
}
