package turtle

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestParseNTriples(t *testing.T) {
	input := `<http://e/s> <http://e/p> <http://e/o> .
<http://e/s> <http://e/p> "lit" .
_:b1 <http://e/p> "v"@en .
<http://e/s> <http://e/q> "39"^^<http://www.w3.org/2001/XMLSchema#integer> .
`
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Triple{
		{S: rdf.IRI("http://e/s"), P: rdf.IRI("http://e/p"), O: rdf.IRI("http://e/o")},
		{S: rdf.IRI("http://e/s"), P: rdf.IRI("http://e/p"), O: rdf.Literal("lit")},
		{S: rdf.Blank("b1"), P: rdf.IRI("http://e/p"), O: rdf.LangLiteral("v", "en")},
		{S: rdf.IRI("http://e/s"), P: rdf.IRI("http://e/q"), O: rdf.Integer(39)},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("parsed %v\nwant %v", ts, want)
	}
}

func TestParsePrefixesAndLists(t *testing.T) {
	input := `@prefix ex: <http://e/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
ex:alice a foaf:Person ;
    foaf:knows ex:bob, ex:carol ;
    foaf:age 39 .
`
	p := NewParser(input, nil)
	ts, err := p.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 {
		t.Fatalf("got %d triples, want 4: %v", len(ts), ts)
	}
	alice := rdf.IRI("http://e/alice")
	for _, tri := range ts {
		if tri.S != alice {
			t.Errorf("unexpected subject %v", tri.S)
		}
	}
	if ts[0].P.Value() != "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
		t.Errorf("'a' not expanded: %v", ts[0].P)
	}
	if ts[3].O != rdf.Integer(39) {
		t.Errorf("numeric shorthand wrong: %v", ts[3].O)
	}
	if _, ok := p.Namespaces().Lookup("foaf"); !ok {
		t.Error("@prefix foaf not recorded")
	}
}

func TestParseSPARQLStylePrefix(t *testing.T) {
	input := `PREFIX ex: <http://e/>
ex:a ex:p ex:b .`
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].S != rdf.IRI("http://e/a") {
		t.Errorf("bad parse: %v", ts)
	}
}

func TestParseBase(t *testing.T) {
	input := `@base <http://base.org/> .
<rel> <http://e/p> <http://abs.org/x> .`
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].S != rdf.IRI("http://base.org/rel") {
		t.Errorf("relative IRI not resolved: %v", ts[0].S)
	}
	if ts[0].O != rdf.IRI("http://abs.org/x") {
		t.Errorf("absolute IRI mangled: %v", ts[0].O)
	}
}

func TestParseAnonymousBlank(t *testing.T) {
	input := `@prefix ex: <http://e/> .
ex:a ex:knows [ ex:name "Bob" ; ex:age 7 ] .
ex:b ex:knows [] .`
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 {
		t.Fatalf("got %d triples, want 4: %v", len(ts), ts)
	}
	var anonTriples int
	for _, tri := range ts {
		if tri.S.IsBlank() || tri.O.IsBlank() {
			anonTriples++
		}
	}
	if anonTriples != 4 {
		t.Errorf("anon blank wiring wrong: %v", ts)
	}
}

func TestParseComments(t *testing.T) {
	input := `# leading comment
<http://e/s> <http://e/p> <http://e/o> . # trailing
# done`
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("got %d triples", len(ts))
	}
}

func TestParseEscapes(t *testing.T) {
	input := `<http://e/s> <http://e/p> "line\nbreak \"quoted\" tab\there \\ done" .`
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	want := "line\nbreak \"quoted\" tab\there \\ done"
	if ts[0].O.Value() != want {
		t.Errorf("unescaped literal = %q, want %q", ts[0].O.Value(), want)
	}
}

func TestParseUnicodeEscape(t *testing.T) {
	input := `<http://e/s> <http://e/p> "café" .`
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].O.Value() != "café" {
		t.Errorf("unicode escape = %q", ts[0].O.Value())
	}
}

func TestParseLongString(t *testing.T) {
	input := "<http://e/s> <http://e/p> \"\"\"multi\nline \"quoted\" text\"\"\" ."
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].O.Value() != "multi\nline \"quoted\" text" {
		t.Errorf("long string = %q", ts[0].O.Value())
	}
}

func TestParseBooleanAndDecimal(t *testing.T) {
	input := `@prefix ex: <http://e/> .
ex:a ex:flag true ; ex:score 3.25 ; ex:exp 1.0e3 .`
	ts, err := NewParser(input, nil).Parse()
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].O.Datatype() != "http://www.w3.org/2001/XMLSchema#boolean" {
		t.Errorf("boolean datatype = %s", ts[0].O.Datatype())
	}
	if ts[1].O.Datatype() != "http://www.w3.org/2001/XMLSchema#decimal" {
		t.Errorf("decimal datatype = %s", ts[1].O.Datatype())
	}
	if ts[2].O.Datatype() != "http://www.w3.org/2001/XMLSchema#double" {
		t.Errorf("double datatype = %s", ts[2].O.Datatype())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> .`,            // missing object
		`<http://e/s> <http://e/p> <http://e/o>`, // missing dot
		`<http://e/s "x" .`,                      // unterminated IRI
		`ex:a ex:p ex:b .`,                       // unbound prefix
		`<http://e/s> "lit" <http://e/o> .`,      // literal predicate
		`_: <http://e/p> <http://e/o> .`,         // empty blank label
		`<http://e/s> <http://e/p> "unterminated .`,
		`@prefix ex <http://e/> .`,          // missing colon in prefix
		`<http://e/s> <http://e/p> "x"^^ .`, // missing datatype IRI
	}
	for _, input := range bad {
		if _, err := NewParser(input, nil).Parse(); err == nil {
			t.Errorf("expected error for %q", input)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s"), P: rdf.IRI("http://e/p"), O: rdf.LangLiteral("hí \"q\"", "en")})
	g.Add(rdf.Triple{S: rdf.Blank("b"), P: rdf.IRI("http://e/p"), O: rdf.Integer(9)})
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s"), P: rdf.IRI("http://e/q"), O: rdf.IRI("http://e/o")})

	text := FormatNTriples(g)
	g2, err := NewParser(text, nil).ParseGraph()
	if err != nil {
		t.Fatalf("reparse failed: %v\ninput:\n%s", err, text)
	}
	if !g.Equal(g2) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", text, FormatNTriples(g2))
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	ns := rdf.CommonNamespaces()
	g := MustParseGraph(`
DB1:Spiderman DB1:starring DB1:Toby_Maguire , DB1:Kirsten_Dunst .
DB1:Toby_Maguire foaf:age "39" ; owl:sameAs foaf:Toby_Maguire .
`)
	text := FormatTurtle(g, ns)
	g2, err := NewParser(text, ns.Clone()).ParseGraph()
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if !g.Equal(g2) {
		t.Errorf("turtle round trip mismatch:\n%s", text)
	}
	if !strings.Contains(text, "@prefix DB1:") {
		t.Errorf("expected used prefix declaration in output:\n%s", text)
	}
	if strings.Contains(text, "@prefix DB2:") {
		t.Errorf("unused prefix should not be declared:\n%s", text)
	}
}

func TestTurtleWriterRendersRDFTypeAsA(t *testing.T) {
	g := MustParseGraph(`:x a :Film .`)
	text := FormatTurtle(g, rdf.CommonNamespaces())
	if !strings.Contains(text, " a ") {
		t.Errorf("rdf:type should render as 'a':\n%s", text)
	}
}

// Property: any graph over a restricted random vocabulary survives an
// N-Triples round trip.
func TestNTriplesRoundTripQuick(t *testing.T) {
	gen := func(vals []reflect.Value, r *rand.Rand) {
		g := rdf.NewGraph()
		n := r.Intn(30)
		for i := 0; i < n; i++ {
			s := rdf.IRI("http://e/s" + string(rune('a'+r.Intn(5))))
			if r.Intn(4) == 0 {
				s = rdf.Blank("b" + string(rune('a'+r.Intn(3))))
			}
			p := rdf.IRI("http://e/p" + string(rune('a'+r.Intn(3))))
			var o rdf.Term
			switch r.Intn(4) {
			case 0:
				o = rdf.IRI("http://e/o" + string(rune('a'+r.Intn(5))))
			case 1:
				o = rdf.Blank("b" + string(rune('a'+r.Intn(3))))
			case 2:
				o = rdf.Literal(randLit(r))
			default:
				o = rdf.LangLiteral(randLit(r), "en")
			}
			g.Add(rdf.Triple{S: s, P: p, O: o})
		}
		vals[0] = reflect.ValueOf(g)
	}
	f := func(g *rdf.Graph) bool {
		g2, err := NewParser(FormatNTriples(g), nil).ParseGraph()
		return err == nil && g.Equal(g2)
	}
	if err := quick.Check(f, &quick.Config{Values: gen, MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randLit(r *rand.Rand) string {
	chars := []rune{'a', 'b', '"', '\\', '\n', '\t', 'é', ' '}
	n := r.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(chars[r.Intn(len(chars))])
	}
	return b.String()
}
