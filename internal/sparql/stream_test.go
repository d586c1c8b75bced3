package sparql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

func TestParseValuesAndString(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT DISTINCT ?z ?x WHERE { ?z e:artist ?x . VALUES (?z) { (e:toby) (e:kirsten) } }`)
	g, ok := q.Where.(*Group)
	if !ok || len(g.Children) != 1 {
		t.Fatalf("where = %#v", q.Where)
	}
	v, ok := g.Children[0].(*Values)
	if !ok || len(v.Names) != 1 || v.Names[0] != "z" || len(v.Rows) != 2 {
		t.Fatalf("values = %#v", g.Children[0])
	}
	// String() must serialise the VALUES block so the query survives the wire
	s := q.String()
	if !strings.Contains(s, "VALUES (?z)") {
		t.Errorf("String() lost the VALUES block: %s", s)
	}
	rt, err := Parse(s, q.Ns)
	if err != nil {
		t.Fatalf("reparse of %q failed: %v", s, err)
	}
	if len(rt.Eval(filmGraph()).Rows) != 2 {
		t.Errorf("round-tripped VALUES query misbehaves: %s", s)
	}
}

func TestEvalValuesRestrictsPattern(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT ?z ?x WHERE { ?z e:artist ?x . VALUES (?z) { (e:toby) } }`)
	res := q.Eval(filmGraph())
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	set := res.TupleSet()
	if !set.Has(pattern.Tuple{rdf.IRI("http://e/toby"), rdf.IRI("http://e/tobyA")}) {
		t.Errorf("wrong row: %v", res.Rows)
	}
	// UNDEF leaves the variable unconstrained in that row
	u := MustParse(`
PREFIX e: <http://e/>
SELECT ?z ?x WHERE { ?z e:artist ?x . VALUES (?z) { (UNDEF) } }`)
	if res := u.Eval(filmGraph()); len(res.Rows) != 2 {
		t.Errorf("UNDEF row should not restrict: %v", res.Rows)
	}
}

func TestParseLimit(t *testing.T) {
	q := MustParse(`PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:age ?o } LIMIT 1`)
	if q.Limit != 1 {
		t.Fatalf("Limit = %d", q.Limit)
	}
	if res := q.Eval(filmGraph()); len(res.Rows) != 1 {
		t.Errorf("LIMIT 1 rows = %v", res.Rows)
	}
	if !strings.Contains(q.String(), "LIMIT 1") {
		t.Errorf("String() lost LIMIT: %s", q.String())
	}
	if _, err := Parse(`SELECT ?s WHERE { ?s ?p ?o } LIMIT -3`, nil); err == nil {
		t.Error("negative LIMIT accepted")
	}
}

// A VALUES child lowers to a HashJoin over InlineBindings — visible in the
// rendered plan, and worth one single pattern scan however many bindings
// ride along.
func TestStreamPlanShowsInlineBindings(t *testing.T) {
	q := MustParse(`
PREFIX e: <http://e/>
SELECT DISTINCT ?z ?x WHERE { ?z e:artist ?x . VALUES (?z) { (e:toby) (e:kirsten) } }`)
	s := plan.Format(q.Plan(rdf.Freeze(filmGraph()), true))
	if !strings.Contains(s, "InlineBindings[?z] rows=2") {
		t.Errorf("plan missing the inline build side:\n%s", s)
	}
	if !strings.Contains(s, "HashJoin") {
		t.Errorf("plan missing the hash join:\n%s", s)
	}

	// a 16-row VALUES batch evaluates with exactly one BGP scan
	var vals strings.Builder
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&vals, "(<http://e/s%d>) ", i)
	}
	big := MustParse(`SELECT DISTINCT ?z ?x WHERE { ?z <http://e/artist> ?x . VALUES (?z) { ` + vals.String() + `} }`)
	before := PatternScans()
	rs, err := big.EvalStream(context.Background(), filmGraph())
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := rs.Next(); !ok {
			break
		}
	}
	rs.Close()
	if got := PatternScans() - before; got != 1 {
		t.Errorf("16-binding VALUES batch took %d pattern scans, want 1", got)
	}
}

// EvalStream must agree with Eval on the row set, for queries inside and
// outside the streamable fragment.
func TestEvalStreamMatchesEval(t *testing.T) {
	for _, text := range []string{
		`PREFIX e: <http://e/> SELECT ?z ?x WHERE { ?z e:artist ?x . VALUES (?z) { (e:toby) (e:kirsten) } }`,
		`PREFIX e: <http://e/> SELECT DISTINCT ?x WHERE { ?s e:artist ?x . VALUES (?s) { (e:toby) (e:toby) } }`,
		`PREFIX e: <http://e/> SELECT ?x ?y WHERE { e:spiderman e:starring ?z . ?z e:artist ?x . ?x e:age ?y }`,
		`PREFIX e: <http://e/> SELECT ?x WHERE { { ?x e:age "39" } UNION { ?x e:age "32" } }`,
	} {
		q := MustParse(text)
		want := q.Eval(filmGraph()).TupleSet()
		rs, err := q.EvalStream(context.Background(), filmGraph())
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		got := pattern.NewTupleSet()
		n := 0
		for {
			row, ok := rs.Next()
			if !ok {
				break
			}
			got.Add(row)
			n++
		}
		rs.Close()
		if !got.Equal(want) {
			t.Errorf("%s:\nstreamed %v\n    eval %v", text, got.Sorted(), want.Sorted())
		}
	}
}

func TestEvalStreamAskStopsAtFirstRow(t *testing.T) {
	// large graph: ASK over a streamed scan must not drain it
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "e:s%d e:p e:o%d .\n", i, i)
	}
	g := turtle.MustParseGraph(b.String())
	q := MustParse(`PREFIX e: <http://e/> ASK { ?s e:p ?o . VALUES (?s) { (e:s500) } }`)
	rs, err := q.EvalStream(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.True {
		t.Error("ASK should be true")
	}
	if rs.Produced() != 1 {
		t.Errorf("ASK produced %d rows, want 1 (first row wins)", rs.Produced())
	}
	rs.Close()
}

func TestEvalStreamLimitReleasesScan(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "e:s%d e:p e:o%d .\n", i, i)
	}
	g := turtle.MustParseGraph(b.String())
	q := MustParse(`PREFIX e: <http://e/> SELECT ?s ?o WHERE { ?s e:p ?o . VALUES (?x) { (e:unused) } } LIMIT 3`)
	// (the VALUES block keeps the query in the streamable fragment while
	// joining nothing away — a pure streamed scan with LIMIT)
	rs, err := q.EvalStream(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		if _, ok := rs.Next(); !ok {
			break
		}
		rows++
	}
	if rows != 3 {
		t.Fatalf("LIMIT 3 streamed %d rows", rows)
	}
	if rs.Produced() >= 1000 {
		t.Errorf("LIMIT 3 still drained the scan: produced %d", rs.Produced())
	}
	rs.Close()
}
