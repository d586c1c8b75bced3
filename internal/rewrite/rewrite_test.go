package rewrite_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/workload"
)

func iri(s string) rdf.Term { return rdf.IRI("http://e/" + s) }

// Perfect rewriting on the paper's own system: evaluating the rewriting of
// the Example 1 query over the STORED database must give exactly the chase
// certain answers (Listing 1's six tuples). This is the Proposition 2
// guarantee — the Figure 1 mapping set is linear (Example 3).
func TestPerfectRewritingFigure1(t *testing.T) {
	sys := workload.Figure1System()
	q := workload.Example1Query()

	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("rewriting of a linear set must saturate (size %d, depth %d)", res.Size(), res.Depth)
	}
	got := res.Evaluate(sys.StoredDatabase())

	want := pattern.NewTupleSet()
	for _, tu := range workload.Listing1Expected() {
		want.Add(tu)
	}
	if !got.Equal(want) {
		t.Errorf("rewriting answers:\n got %v\nwant %v\nUCQ size %d",
			got.Sorted(), want.Sorted(), res.Size())
	}
}

// Listing 2: the boolean query for (DB1:Toby_Maguire, "39") is false on the
// stored database, and true after rewriting; one disjunct uses
// foaf:Toby_Maguire in the subject position of the age pattern.
func TestListing2BooleanRewriting(t *testing.T) {
	sys := workload.Figure1System()
	q := workload.Example1Query()
	bq, err := q.Substitute(pattern.Tuple{
		rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("39"),
	})
	if err != nil {
		t.Fatal(err)
	}
	stored := sys.StoredDatabase()
	if plan.Ask(stored, bq.GP) {
		t.Fatal("boolean query must be false over the stored database")
	}
	res, err := rewrite.Rewrite(bq, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask(stored) {
		t.Errorf("rewritten boolean query must be true (UCQ size %d)", res.Size())
	}
	// the paper's displayed disjunct: foaf:Toby_Maguire age "39"
	foundFoaf := false
	for _, d := range res.Disjuncts {
		for _, tp := range d.Query.GP {
			if !tp.S.IsVar() && tp.S.Term() == rdf.IRI(workload.NSFoaf+"Toby_Maguire") &&
				!tp.P.IsVar() && tp.P.Term() == workload.Age {
				foundFoaf = true
			}
		}
	}
	if !foundFoaf {
		t.Error("expected a disjunct rewriting the age pattern to foaf:Toby_Maguire")
	}
	// the false tuple stays false
	bqFalse, _ := q.Substitute(pattern.Tuple{
		rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("99"),
	})
	resFalse, err := rewrite.Rewrite(bqFalse, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resFalse.Ask(stored) {
		t.Error("rewriting must not invent answers")
	}
}

// Equivalence-only rewriting: a query over vocabulary A answered from data
// stored in vocabulary B.
func TestEquivalenceRewriting(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	if err := p.Add(rdf.Triple{S: iri("bFilm"), P: iri("bDirected"), O: iri("bPerson")}); err != nil {
		t.Fatal(err)
	}
	// register the A vocabulary so equivalences can point at it
	if err := p.Add(rdf.Triple{S: iri("aFilm"), P: iri("aDirected"), O: iri("aPerson")}); err != nil {
		t.Fatal(err)
	}
	p.Data().Remove(rdf.Triple{S: iri("aFilm"), P: iri("aDirected"), O: iri("aPerson")})
	_ = sys.AddEquivalence(iri("aFilm"), iri("bFilm"))
	_ = sys.AddEquivalence(iri("aDirected"), iri("bDirected"))

	q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.C(iri("aFilm")), pattern.C(iri("aDirected")), pattern.V("x")),
	})
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Evaluate(sys.StoredDatabase())
	if got.Len() != 1 || !got.Has(pattern.Tuple{iri("bPerson")}) {
		t.Errorf("answers = %v", got.Sorted())
	}
	// cross-check against the chase
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(u.CertainAnswers(q)) {
		t.Errorf("rewriting %v != chase %v", got.Sorted(), u.CertainAnswers(q).Sorted())
	}
}

// An answer variable unified with a constant must surface the constant in
// the answer tuples (the Bound mechanism).
func TestAnswerVariableBoundToConstant(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	// store only (b, age, "39"); ask q(x,y) <- (x, age, y)
	if err := p.Add(rdf.Triple{S: iri("b"), P: iri("age"), O: rdf.Literal("39")}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(rdf.Triple{S: iri("a"), P: iri("marker"), O: iri("a")}); err != nil {
		t.Fatal(err)
	}
	_ = sys.AddEquivalence(iri("a"), iri("b"))
	q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(iri("age")), pattern.V("y")),
	})
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Evaluate(sys.StoredDatabase())
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := u.CertainAnswers(q)
	if !got.Equal(want) {
		t.Errorf("rewriting %v != chase %v", got.Sorted(), want.Sorted())
	}
	// both (a,39) and (b,39) must be present
	if !got.Has(pattern.Tuple{iri("a"), rdf.Literal("39")}) {
		t.Errorf("missing bound-constant answer: %v", got.Sorted())
	}
	// at least one disjunct carries a Bound entry
	foundBound := false
	for _, d := range res.Disjuncts {
		if len(d.Bound) > 0 {
			foundBound = true
			if !strings.Contains(d.String(), "=") {
				t.Error("bound disjunct should render its binding")
			}
		}
	}
	if !foundBound {
		t.Error("expected a disjunct with a bound answer variable")
	}
}

// GMA rewriting with a multi-atom head and shared existential: the query's
// starring/artist path must rewrite to the actor edge (piece unification of
// two atoms at once).
func TestPieceRewritingMultiAtomHead(t *testing.T) {
	sys := workload.Figure1System()
	q := pattern.MustQuery([]string{"f", "a"}, pattern.GraphPattern{
		pattern.TP(pattern.V("f"), pattern.C(workload.Starring), pattern.V("z")),
		pattern.TP(pattern.V("z"), pattern.C(workload.Artist), pattern.V("a")),
	})
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// some disjunct must be the single actor atom
	foundActor := false
	for _, d := range res.Disjuncts {
		if len(d.Query.GP) == 1 && !d.Query.GP[0].P.IsVar() && d.Query.GP[0].P.Term() == workload.Actor {
			foundActor = true
		}
	}
	if !foundActor {
		t.Errorf("expected an actor-edge disjunct among %d disjuncts", res.Size())
	}
	// and answers over the stored database match the chase
	got := res.Evaluate(sys.StoredDatabase())
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := u.CertainAnswers(q)
	if !got.Equal(want) {
		t.Errorf("rewriting %v != chase %v", got.Sorted(), want.Sorted())
	}
}

// The existential in the GMA head must NOT unify with an answer variable:
// q(f,z) <- (f, starring, z) cannot be rewritten through the actor mapping
// because z would be erased.
func TestExistentialCannotBindAnswerVariable(t *testing.T) {
	sys := workload.Figure1System()
	q := pattern.MustQuery([]string{"f", "z"}, pattern.GraphPattern{
		pattern.TP(pattern.V("f"), pattern.C(workload.Starring), pattern.V("z")),
	})
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Disjuncts {
		for _, tp := range d.Query.GP {
			if !tp.P.IsVar() && tp.P.Term() == workload.Actor {
				t.Errorf("illegal rewriting through existential: %v", d)
			}
		}
	}
	// cross-check: answers equal chase answers (both drop blank-valued z)
	got := res.Evaluate(sys.StoredDatabase())
	u, _ := chase.Run(sys, chase.Options{})
	if !got.Equal(u.CertainAnswers(q)) {
		t.Errorf("rewriting %v != chase %v", got.Sorted(), u.CertainAnswers(q).Sorted())
	}
}

// The existential CAN unify with a non-answer variable that occurs only
// inside the selected piece: q(f) <- (f, starring, z) rewrites to the actor
// edge with z absorbed.
func TestExistentialAbsorbsLocalVariable(t *testing.T) {
	sys := workload.Figure1System()
	q := pattern.MustQuery([]string{"f"}, pattern.GraphPattern{
		pattern.TP(pattern.V("f"), pattern.C(workload.Starring), pattern.V("z")),
	})
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundActor := false
	for _, d := range res.Disjuncts {
		for _, tp := range d.Query.GP {
			if !tp.P.IsVar() && tp.P.Term() == workload.Actor {
				foundActor = true
			}
		}
	}
	if !foundActor {
		t.Error("starring atom should rewrite through the GMA when z is local")
	}
	got := res.Evaluate(sys.StoredDatabase())
	u, _ := chase.Run(sys, chase.Options{})
	if !got.Equal(u.CertainAnswers(q)) {
		t.Errorf("rewriting %v != chase %v", got.Sorted(), u.CertainAnswers(q).Sorted())
	}
}

// A GMA's answer variables are guarded by rt atoms, so a labelled null
// never fires it. With B: ?x b ?y ⇝ ?x a ?z . ?z a ?y and C: ?x c ?y ⇝
// ?x b ?z . ?z a ?y, the fact (s c o) makes the chase invent (s b N) with
// N a null, and B does not fire on it: s is not an answer of ?x a ?z. The
// rewriting must not chain C into B through B's resource variable ?y.
func TestResourceVariableNeverNull(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	a, b, c := iri("a"), iri("b"), iri("c")
	for _, tr := range []rdf.Triple{{S: iri("s"), P: c, O: iri("o")}, {S: iri("t"), P: a, O: iri("u")}, {S: iri("t"), P: b, O: iri("u")}} {
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	x, y, z := pattern.V("x"), pattern.V("y"), pattern.V("z")
	for _, m := range []struct{ from, mid, to rdf.Term }{{b, a, a}, {c, b, a}} {
		if err := sys.AddMapping(core.GraphMappingAssertion{
			From: pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pattern.C(m.from), y)}),
			To: pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
				pattern.TP(x, pattern.C(m.mid), z), pattern.TP(z, pattern.C(m.to), y),
			}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(x, pattern.C(a), z)})
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := chase.CertainAnswers(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Evaluate(sys.StoredDatabase()); !got.Equal(want) || got.Has(pattern.Tuple{iri("s")}) {
		t.Errorf("rewriting %v != chase %v; disjuncts:\n%v", got.Sorted(), want.Sorted(), res.UCQ())
	}
}

// transitiveTGD is the Proposition 3 dependency as a TripleTGD.
func transitiveTGD() rewrite.TripleTGD {
	A := pattern.C(iri("A"))
	return rewrite.TripleTGD{
		Body: pattern.GraphPattern{
			pattern.TP(pattern.V("x"), A, pattern.V("z")),
			pattern.TP(pattern.V("z"), A, pattern.V("y")),
		},
		Head:  pattern.GraphPattern{pattern.TP(pattern.V("x"), A, pattern.V("y"))},
		Label: "transitive",
	}
}

// Proposition 3: under the transitive-closure TGD the rewriting never
// saturates — deeper bounds keep adding disjuncts and completeness for
// chains of length L requires depth ≥ L-1.
func TestNonFORewritability(t *testing.T) {
	chainGraph := func(n int) *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < n; i++ {
			g.Add(rdf.Triple{S: iri(fmt.Sprintf("n%d", i)), P: iri("A"), O: iri(fmt.Sprintf("n%d", i+1))})
		}
		return g
	}
	askEnds := func(n int) pattern.Query {
		return pattern.Query{GP: pattern.GraphPattern{
			pattern.TP(pattern.C(iri("n0")), pattern.C(iri("A")), pattern.C(iri(fmt.Sprintf("n%d", n)))),
		}}
	}
	sigma := []rewrite.TripleTGD{transitiveTGD()}

	var prevSize int
	for _, depth := range []int{1, 2, 3, 4} {
		res, err := rewrite.RewriteTGDs(askEnds(8), sigma, rewrite.Options{MaxDepth: depth, MaxQueries: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Errorf("depth %d: rewriting of transitive closure should truncate, size %d", depth, res.Size())
		}
		if res.Size() <= prevSize {
			t.Errorf("depth %d: UCQ size %d did not grow beyond %d", depth, res.Size(), prevSize)
		}
		prevSize = res.Size()
	}

	// completeness for chain length L requires depth ≥ L-1
	for _, L := range []int{2, 3, 4} {
		g := chainGraph(L)
		shallow, err := rewrite.RewriteTGDs(askEnds(L), sigma, rewrite.Options{MaxDepth: L - 2 + 1, MaxQueries: 100000})
		if err != nil {
			t.Fatal(err)
		}
		deep, err := rewrite.RewriteTGDs(askEnds(L), sigma, rewrite.Options{MaxDepth: L, MaxQueries: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if L > 2 && shallow.Ask(g) && !shallow.Truncated {
			t.Errorf("L=%d: shallow rewriting unexpectedly complete and saturated", L)
		}
		if !deep.Ask(g) {
			t.Errorf("L=%d: depth-%d rewriting should verify the chain", L, L)
		}
	}
}

// Sticky but non-linear set: rewriting still saturates and matches the
// chase. Uses a product-style GMA S(x) ∧ T(y) → U(x,y) encoded on triples:
// (x, inS, x) ∧ (y, inT, y) → (x, rel, y).
func TestStickyNonLinearRewriting(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	add := func(s, pr, o rdf.Term) {
		if err := p.Add(rdf.Triple{S: s, P: pr, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	inS, inT, rel := iri("inS"), iri("inT"), iri("rel")
	add(iri("s1"), inS, iri("s1"))
	add(iri("s2"), inS, iri("s2"))
	add(iri("t1"), inT, iri("t1"))
	// rel must be in schema for validation
	add(iri("s1"), rel, iri("s1"))
	p.Data().Remove(rdf.Triple{S: iri("s1"), P: rel, O: iri("s1")})

	from := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(inS), pattern.V("x")),
		pattern.TP(pattern.V("y"), pattern.C(inT), pattern.V("y")),
	})
	to := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(rel), pattern.V("y")),
	})
	if err := sys.AddMapping(core.GraphMappingAssertion{From: from, To: to, SrcPeer: "p", DstPeer: "p", Label: "product"}); err != nil {
		t.Fatal(err)
	}
	q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(rel), pattern.V("y")),
	})
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("product mapping should saturate")
	}
	got := res.Evaluate(sys.StoredDatabase())
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := u.CertainAnswers(q)
	if !got.Equal(want) {
		t.Errorf("rewriting %v != chase %v", got.Sorted(), want.Sorted())
	}
	if got.Len() != 2 {
		t.Errorf("want 2 product answers, got %v", got.Sorted())
	}
}

func TestRewriteOptionsAndErrors(t *testing.T) {
	sys := workload.Figure1System()
	// free variable not in body
	bad := pattern.Query{Free: []string{"zzz"}, GP: pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(workload.Age), pattern.V("y")),
	}}
	if _, err := rewrite.Rewrite(bad, sys, rewrite.Options{}); err == nil {
		t.Error("free variable outside body should error")
	}
	// MaxQueries truncation
	q := workload.Example1Query()
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{MaxQueries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Size() > 2 {
		t.Errorf("MaxQueries not enforced: size %d truncated %v", res.Size(), res.Truncated)
	}
	if res.Generated == 0 {
		t.Error("Generated counter not maintained")
	}
	if len(res.UCQ()) != res.Size() {
		t.Error("UCQ accessor size mismatch")
	}
}

// Rewriting with an empty dependency set returns exactly the input query.
func TestRewriteNoDependencies(t *testing.T) {
	q := workload.Example1Query()
	res, err := rewrite.RewriteTGDs(q, nil, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 || res.Truncated {
		t.Errorf("size = %d, truncated = %v", res.Size(), res.Truncated)
	}
}

// Soundness sweep: on a small film workload every rewriting answer is a
// chase answer and vice versa (the mapping set is linear, so rewriting is
// perfect). The workload is kept small because perfect UCQ rewritings grow
// combinatorially with the number of equivalence mappings — the behaviour
// the combined approach below is designed to avoid.
func TestPerfectRewritingScaledFilm(t *testing.T) {
	cfg := workload.FilmConfig{Films: 2, ActorsPerFilm: 2, SameAsFraction: 0.5, Seed: 11}
	sys := workload.ScaledFilmSystem(cfg)
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := sys.StoredDatabase()
	for f := 0; f < 2; f++ {
		q := workload.ScaledFilmQuery(f)
		res, err := rewrite.Rewrite(q, sys, rewrite.Options{MaxQueries: 500000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("film %d: linear set must saturate (size %d)", f, res.Size())
		}
		got := res.Evaluate(stored)
		want := u.CertainAnswers(q)
		if !got.Equal(want) {
			t.Errorf("film %d: rewriting %v != chase %v", f, got.Sorted(), want.Sorted())
		}
	}
}

// The combined approach (Section 5 future work, item 1): equivalences are
// canonicalised away and only the GMAs are rewritten. Answers must equal
// the chase on an equivalence-heavy workload where the full UCQ rewriting
// is infeasible.
func TestCombinedApproachScaledFilm(t *testing.T) {
	cfg := workload.FilmConfig{Films: 8, ActorsPerFilm: 3, SameAsFraction: 0.9, Seed: 5}
	sys := workload.ScaledFilmSystem(cfg)
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	comb := rewrite.NewCombined(sys)
	for f := 0; f < 8; f += 3 {
		q := workload.ScaledFilmQuery(f)
		got, res, err := comb.Answer(q, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("film %d: GMA-only rewriting must saturate", f)
		}
		// GMA-only UCQ stays tiny regardless of |E|
		if res.Size() > 8 {
			t.Errorf("film %d: combined UCQ size %d unexpectedly large", f, res.Size())
		}
		want := u.CertainAnswers(q)
		if !got.Equal(want) {
			t.Errorf("film %d: combined %v != chase %v", f, got.Sorted(), want.Sorted())
		}
	}
}

// Combined approach on Figure 1 reproduces Listing 1 exactly.
func TestCombinedApproachFigure1(t *testing.T) {
	sys := workload.Figure1System()
	comb := rewrite.NewCombined(sys)
	got, res, err := comb.Answer(workload.Example1Query(), rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("combined rewriting must saturate")
	}
	want := pattern.NewTupleSet()
	for _, tu := range workload.Listing1Expected() {
		want.Add(tu)
	}
	if !got.Equal(want) {
		t.Errorf("combined answers:\n got %v\nwant %v", got.Sorted(), want.Sorted())
	}
	// the canonical database never exceeds the stored database
	if comb.CanonicalDatabase().Len() > sys.StoredDatabase().Len() {
		t.Error("canonical database larger than stored database")
	}
}

func TestTGDHelpers(t *testing.T) {
	sys := workload.Figure1System()
	deps := rewrite.SystemTGDs(sys)
	want := len(sys.G) + 6*len(sys.E)
	if len(deps) != want {
		t.Errorf("SystemTGDs = %d, want %d", len(deps), want)
	}
	g := rewrite.GMATGD(workload.FilmGMA())
	ex := g.ExistentialVars()
	if len(ex) != 1 {
		t.Errorf("existential vars = %v", ex)
	}
	if len(g.Vars()) != 3 {
		t.Errorf("Vars = %v", g.Vars())
	}
	if !strings.Contains(g.String(), "->") {
		t.Errorf("String = %q", g.String())
	}
}

// BenchmarkRewriteMemo prices the rewriting module on the mediator's most
// common query shape: a 2-hop path anchored at an entity constant in the
// vocabulary of the last peer of the 8-peer rename chain (71 disjuncts).
// direct is rewrite.Rewrite; miss is a Memo seeing the shape for the first
// time (abstraction, the rewriting, one substitution pass); hit is a Memo
// that holds the shape (abstraction and the substitution pass only).
func BenchmarkRewriteMemo(b *testing.B) {
	sys := workload.LODSystem(workload.LODConfig{
		Peers: 8, Topology: workload.Chain, Shape: workload.Rename,
		FactsPerPeer: 20, EntitiesPerPeer: 10, Seed: 1,
	})
	coreP := pattern.C(workload.LODPredicate(7, "core"))
	path := func(i int) pattern.Query {
		return pattern.MustQuery([]string{"x1", "x2"}, pattern.GraphPattern{
			pattern.TP(pattern.C(workload.LODEntity(i%8, i%10)), coreP, pattern.V("x1")),
			pattern.TP(pattern.V("x1"), coreP, pattern.V("x2")),
		})
	}
	if res, err := rewrite.Rewrite(path(0), sys, rewrite.Options{}); err != nil || res.Truncated {
		b.Fatalf("rewriting: %v", err)
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, err := rewrite.Rewrite(path(i), sys, rewrite.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			var m rewrite.Memo
			if _, _, err := m.Rewrite(path(i), sys, rewrite.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		var m rewrite.Memo
		if _, _, err := m.Rewrite(path(0), sys, rewrite.Options{}); err != nil {
			b.Fatal(err)
		}
		for i := 0; b.Loop(); i++ {
			if _, hit, err := m.Rewrite(path(i), sys, rewrite.Options{}); err != nil || !hit {
				b.Fatalf("hit = %v, err = %v", hit, err)
			}
		}
	})
}
