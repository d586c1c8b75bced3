package pattern

import (
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/turtle"
)

func iri(s string) rdf.Term { return rdf.IRI("http://e/" + s) }

func testGraph() *rdf.Graph {
	return turtle.MustParseGraph(`
@prefix e: <http://e/> .
e:spiderman e:starring e:toby , e:kirsten .
e:toby e:artist e:tobyActor .
e:kirsten e:artist e:kirstenActor .
e:tobyActor e:age "39" .
e:kirstenActor e:age "32" .
e:pleasantville e:starring e:toby .
`)
}

func TestElemBasics(t *testing.T) {
	v := V("x")
	c := C(iri("a"))
	if !v.IsVar() || v.Var() != "x" || v.String() != "?x" {
		t.Errorf("variable elem broken: %v", v)
	}
	if c.IsVar() || c.Term() != iri("a") {
		t.Errorf("constant elem broken: %v", c)
	}
}

func TestTriplePatternVarsAndApply(t *testing.T) {
	tp := TP(V("x"), C(iri("p")), V("y"))
	if got := tp.Vars(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("Vars = %v", got)
	}
	applied := tp.Apply(Binding{"x": iri("a")})
	if applied.S.IsVar() || applied.S.Term() != iri("a") || !applied.O.IsVar() {
		t.Errorf("Apply = %v", applied)
	}
	tr, ok := tp.Ground(Binding{"x": iri("a"), "y": iri("b")})
	if !ok || tr != (rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")}) {
		t.Errorf("Ground = %v, %v", tr, ok)
	}
	if _, ok := tp.Ground(Binding{"x": iri("a")}); ok {
		t.Error("Ground with unbound var should fail")
	}
}

func TestCompatibleAndUnion(t *testing.T) {
	a := Binding{"x": iri("1"), "y": iri("2")}
	b := Binding{"y": iri("2"), "z": iri("3")}
	c := Binding{"y": iri("9")}
	if !Compatible(a, b) {
		t.Error("a and b share y=2, should be compatible")
	}
	if Compatible(a, c) {
		t.Error("a and c disagree on y")
	}
	u := Union(a, b)
	if len(u) != 3 || u["z"] != iri("3") || u["x"] != iri("1") {
		t.Errorf("Union = %v", u)
	}
	if !Compatible(Binding{}, a) || !Compatible(a, Binding{}) {
		t.Error("empty binding is compatible with everything")
	}
}

func TestJoinHashAndCross(t *testing.T) {
	om1 := []Binding{{"x": iri("1"), "y": iri("a")}, {"x": iri("2"), "y": iri("b")}}
	om2 := []Binding{{"y": iri("a"), "z": iri("A")}, {"y": iri("c"), "z": iri("C")}}
	got := Join(om1, om2)
	if len(got) != 1 || got[0]["x"] != iri("1") || got[0]["z"] != iri("A") {
		t.Errorf("hash join = %v", got)
	}
	// cross product when no shared vars
	om3 := []Binding{{"w": iri("w1")}, {"w": iri("w2")}}
	cross := Join(om1, om3)
	if len(cross) != 4 {
		t.Errorf("cross join size = %d, want 4", len(cross))
	}
	if Join(nil, om1) != nil || Join(om1, nil) != nil {
		t.Error("join with empty set should be empty")
	}
}

func TestJoinMixedDomains(t *testing.T) {
	// om2 bindings have different domains: hash join would be unsound,
	// nested-loop fallback must kick in.
	om1 := []Binding{{"x": iri("1")}}
	om2 := []Binding{{"x": iri("1"), "y": iri("a")}, {"y": iri("b")}}
	got := Join(om1, om2)
	if len(got) != 2 {
		t.Fatalf("mixed-domain join = %v, want 2 results", got)
	}
}

func TestJoinCommutativeOnEvalSets(t *testing.T) {
	g := testGraph()
	om1 := EvalTriplePattern(g, TP(V("f"), C(iri("starring")), V("s")))
	om2 := EvalTriplePattern(g, TP(V("s"), C(iri("artist")), V("a")))
	ab := Join(om1, om2)
	ba := Join(om2, om1)
	if len(ab) != len(ba) {
		t.Fatalf("join not commutative in size: %d vs %d", len(ab), len(ba))
	}
	key := func(om []Binding) map[string]int {
		m := make(map[string]int)
		for _, mu := range om {
			tu := Tuple{mu["f"], mu["s"], mu["a"]}
			m[tu.Key()]++
		}
		return m
	}
	if !reflect.DeepEqual(key(ab), key(ba)) {
		t.Error("join not commutative in content")
	}
}

func TestEvalTriplePattern(t *testing.T) {
	g := testGraph()
	om := EvalTriplePattern(g, TP(C(iri("spiderman")), C(iri("starring")), V("z")))
	if len(om) != 2 {
		t.Fatalf("got %d bindings, want 2", len(om))
	}
	for _, mu := range om {
		if len(mu) != 1 {
			t.Errorf("dom(µ) should be {z}, got %v", mu)
		}
	}
}

func TestEvalTriplePatternRepeatedVar(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("a")})
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	om := EvalTriplePattern(g, TP(V("x"), C(iri("p")), V("x")))
	if len(om) != 1 || om[0]["x"] != iri("a") {
		t.Errorf("repeated variable filter failed: %v", om)
	}
}

func TestEvalMatchesNaive(t *testing.T) {
	g := testGraph()
	gp := GraphPattern{
		TP(C(iri("spiderman")), C(iri("starring")), V("z")),
		TP(V("z"), C(iri("artist")), V("x")),
		TP(V("x"), C(iri("age")), V("y")),
	}
	check := func(name string, om []Binding) {
		if len(om) != 2 {
			t.Fatalf("%s: got %d bindings, want 2: %v", name, len(om), om)
		}
		seen := map[string]bool{}
		for _, mu := range om {
			seen[mu["y"].Value()] = true
		}
		if !seen["39"] || !seen["32"] {
			t.Errorf("%s: wrong ages: %v", name, om)
		}
	}
	check("naive", EvalNaive(g, gp))
	check("greedy", EvalGreedy(g, gp))
	check("textual", EvalTextualOrder(g, gp))
}

func TestEvalEmptyPattern(t *testing.T) {
	g := testGraph()
	if om := EvalGreedy(g, nil); len(om) != 1 || len(om[0]) != 0 {
		t.Errorf("empty GP should yield the single empty mapping, got %v", om)
	}
	if om := EvalNaive(g, nil); len(om) != 1 {
		t.Errorf("naive empty GP = %v", om)
	}
}

func TestEvalNoMatch(t *testing.T) {
	g := testGraph()
	gp := GraphPattern{TP(C(iri("nonexistent")), V("p"), V("o"))}
	if om := EvalGreedy(g, gp); len(om) != 0 {
		t.Errorf("expected no matches, got %v", om)
	}
}

func TestQueryConstruction(t *testing.T) {
	gp := GraphPattern{TP(V("x"), C(iri("p")), V("y"))}
	q, err := NewQuery([]string{"x"}, gp)
	if err != nil {
		t.Fatal(err)
	}
	if q.Arity() != 1 || q.IsBoolean() {
		t.Error("arity bookkeeping wrong")
	}
	if got := q.ExistVars(); !reflect.DeepEqual(got, []string{"y"}) {
		t.Errorf("ExistVars = %v", got)
	}
	if _, err := NewQuery([]string{"zzz"}, gp); err == nil {
		t.Error("free var not in body should be rejected")
	}
}

func TestQuerySubstituteBoolean(t *testing.T) {
	g := testGraph()
	q := MustQuery([]string{"x", "y"}, GraphPattern{
		TP(C(iri("spiderman")), C(iri("starring")), V("z")),
		TP(V("z"), C(iri("artist")), V("x")),
		TP(V("x"), C(iri("age")), V("y")),
	})
	bq, err := q.Substitute(Tuple{iri("tobyActor"), rdf.Literal("39")})
	if err != nil {
		t.Fatal(err)
	}
	if !bq.IsBoolean() {
		t.Fatal("substituted query should be boolean")
	}
	if len(EvalGreedy(g, bq.GP)) == 0 {
		t.Error("true tuple should verify")
	}
	bq2, _ := q.Substitute(Tuple{iri("tobyActor"), rdf.Literal("99")})
	if len(EvalGreedy(g, bq2.GP)) != 0 {
		t.Error("false tuple should not verify")
	}
	if _, err := q.Substitute(Tuple{iri("a")}); err == nil {
		t.Error("wrong arity should error")
	}
}

func TestQueryRename(t *testing.T) {
	q := MustQuery([]string{"x"}, GraphPattern{TP(V("x"), C(iri("p")), V("y"))})
	r := q.Rename("m0_")
	if r.Free[0] != "m0_x" {
		t.Errorf("free var not renamed: %v", r.Free)
	}
	if r.GP[0].S.Var() != "m0_x" || r.GP[0].O.Var() != "m0_y" {
		t.Errorf("body vars not renamed: %v", r.GP)
	}
	if r.GP[0].P.IsVar() {
		t.Error("constant should be untouched")
	}
}

func TestSpecialQueries(t *testing.T) {
	g := testGraph()
	// every variable of these queries is an answer variable, so each
	// solution mapping is one answer tuple
	for _, c := range []struct {
		name string
		q    Query
	}{{"subjQ(spiderman)", SubjQ(iri("spiderman"))}, {"predQ(age)", PredQ(iri("age"))}, {"objQ(toby)", ObjQ(iri("toby"))}} {
		if om := EvalGreedy(g, c.q.GP); len(om) != 2 {
			t.Errorf("%s = %v", c.name, om)
		}
	}
}

func TestTupleSetOps(t *testing.T) {
	s1 := NewTupleSet()
	s2 := NewTupleSet()
	a := Tuple{iri("a")}
	b := Tuple{iri("b")}
	s1.Add(a)
	s1.Add(b)
	s2.Add(a)
	if !s2.SubsetOf(s1) || s1.SubsetOf(s2) {
		t.Error("subset logic wrong")
	}
	diff := s1.Minus(s2)
	if len(diff) != 1 || !diff[0].Equal(b) {
		t.Errorf("Minus = %v", diff)
	}
	if s1.Equal(s2) {
		t.Error("unequal sets compare equal")
	}
	s2.Add(b)
	if !s1.Equal(s2) {
		t.Error("equal sets compare unequal")
	}
	if s1.Add(a) {
		t.Error("duplicate Add should report false")
	}
}

func TestTupleHelpers(t *testing.T) {
	tu := Tuple{iri("a"), rdf.Blank("b")}
	if !tu.HasBlank() {
		t.Error("HasBlank missed blank")
	}
	if tu.Equal(Tuple{iri("a")}) {
		t.Error("length mismatch should not be equal")
	}
	if tu.String() == "" || tu.Key() == "" {
		t.Error("render helpers empty")
	}
}

func TestQueryStringForms(t *testing.T) {
	q := MustQuery([]string{"x"}, GraphPattern{TP(V("x"), C(iri("p")), C(rdf.Literal("39")))})
	s := q.String()
	if s != `q(?x) <- ?x <http://e/p> "39"` {
		t.Errorf("String = %q", s)
	}
}

func TestGraphPatternConstants(t *testing.T) {
	gp := GraphPattern{
		TP(V("x"), C(iri("p")), C(rdf.Literal("39"))),
		TP(C(iri("a")), C(iri("p")), V("y")),
	}
	cs := gp.Constants()
	if len(cs) != 3 {
		t.Errorf("Constants = %v", cs)
	}
}
