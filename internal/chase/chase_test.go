package chase_test

import (
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/workload"
)

func allModes() []chase.Options {
	return []chase.Options{
		{Mode: chase.ModeDelta, Equiv: chase.EquivCopy},
		{Mode: chase.ModeNaive, Equiv: chase.EquivCopy},
		{Mode: chase.ModeDelta, Equiv: chase.EquivCanonical},
		{Mode: chase.ModeNaive, Equiv: chase.EquivCanonical},
	}
}

func modeName(o chase.Options) string {
	m := "delta"
	if o.Mode == chase.ModeNaive {
		m = "naive"
	}
	e := "copy"
	if o.Equiv == chase.EquivCanonical {
		e = "canonical"
	}
	return m + "/" + e
}

// The headline result: the chase over the Figure 1 system answers the
// Example 1 query with exactly the six tuples of Listing 1, under every
// scheduling mode and equivalence strategy.
func TestListing1Reproduction(t *testing.T) {
	q := workload.Example1Query()
	want := pattern.NewTupleSet()
	for _, tu := range workload.Listing1Expected() {
		want.Add(tu)
	}
	for _, opts := range allModes() {
		t.Run(modeName(opts), func(t *testing.T) {
			sys := workload.Figure1System()
			u, err := chase.Run(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := u.CertainAnswers(q)
			if !got.Equal(want) {
				t.Errorf("certain answers:\n got %v\nwant %v", got.Sorted(), want.Sorted())
			}
		})
	}
}

// TestParallelChaseMatchesSerial: with Options.Parallel the applicability
// queries of each round fan out over the sharded store; the certain answers
// (and the solution property) must be identical to a serial run in every
// scheduling mode and equivalence strategy.
func TestParallelChaseMatchesSerial(t *testing.T) {
	q := workload.Example1Query()
	for _, opts := range allModes() {
		t.Run(modeName(opts), func(t *testing.T) {
			serial, err := chase.Run(workload.Figure1System(), opts)
			if err != nil {
				t.Fatal(err)
			}
			par := opts
			par.Parallel = true
			sys := workload.Figure1System()
			parallel, err := chase.Run(sys, par)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := parallel.CertainAnswers(q), serial.CertainAnswers(q); !got.Equal(want) {
				t.Errorf("parallel chase answers:\n got %v\nwant %v", got.Sorted(), want.Sorted())
			}
			if par.Equiv == chase.EquivCopy {
				if viol := sys.CheckSolution(parallel.Graph); len(viol) != 0 {
					t.Errorf("parallel universal solution violates Definition 2: %v", viol)
				}
			}
		})
	}
}

// Listing 1's "result without redundancy": one representative per sameAs
// class.
func TestListing1NoRedundancy(t *testing.T) {
	sys := workload.Figure1System()
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := u.CertainAnswersNoRedundancy(workload.Example1Query())
	want := workload.Listing1ExpectedNoRedundancy()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d: %v", len(got), len(want), got)
	}
	wantSet := pattern.NewTupleSet()
	for _, tu := range want {
		wantSet.Add(tu)
	}
	for _, tu := range got {
		if !wantSet.Has(tu) {
			t.Errorf("unexpected tuple %v", tu)
		}
	}
}

// The chased database must be a solution in the sense of Definition 2
// (copy strategy; the canonical strategy intentionally produces a smaller,
// answer-equivalent structure that is not a literal solution).
func TestUniversalIsSolution(t *testing.T) {
	for _, mode := range []chase.Mode{chase.ModeDelta, chase.ModeNaive} {
		sys := workload.Figure1System()
		u, err := chase.Run(sys, chase.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if viol := sys.CheckSolution(u.Graph); len(viol) != 0 {
			t.Errorf("mode %v: universal solution violates Definition 2: %v", mode, viol)
		}
	}
}

func TestStoredDatabaseIsNotASolution(t *testing.T) {
	sys := workload.Figure1System()
	if sys.IsSolution(sys.StoredDatabase()) {
		t.Error("the stored database should not satisfy the mappings")
	}
}

func TestChaseStats(t *testing.T) {
	sys := workload.Figure1System()
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Stats.TriplesAdded <= 0 {
		t.Error("chase should infer triples")
	}
	if u.Stats.FreshBlanks <= 0 {
		t.Error("GMA firing should create labelled nulls")
	}
	if u.Stats.GMAFirings <= 0 || u.Stats.EquivCopies <= 0 {
		t.Errorf("stats = %+v", u.Stats)
	}
	if u.Stats.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

// Blank nodes (stored or chase-created) never appear in certain answers.
func TestCertainAnswersDropBlanks(t *testing.T) {
	sys := workload.Figure1System()
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := pattern.MustQuery([]string{"x", "z"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(workload.Starring), pattern.V("z")),
	})
	got := u.CertainAnswers(q)
	if got.Len() != 0 {
		t.Errorf("starring objects are all blanks; got %v", got.Sorted())
	}
	// but the blanks are there under star semantics
	star := plan.ExecuteQueryStar(u.Graph, q)
	if star.Len() == 0 {
		t.Error("star semantics should see the blanks")
	}
}

// Equivalence must propagate transitively through classes: a ≡ b, b ≡ c
// copies triples from a to c.
func TestEquivalenceTransitivity(t *testing.T) {
	for _, opts := range allModes() {
		t.Run(modeName(opts), func(t *testing.T) {
			sys := core.NewSystem()
			p := sys.AddPeer("p")
			a, b, c := rdf.IRI("http://e/a"), rdf.IRI("http://e/b"), rdf.IRI("http://e/c")
			pr := rdf.IRI("http://e/p")
			if err := p.Add(rdf.Triple{S: a, P: pr, O: rdf.Literal("v")}); err != nil {
				t.Fatal(err)
			}
			_ = sys.AddEquivalence(a, b)
			_ = sys.AddEquivalence(b, c)
			u, err := chase.Run(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
				pattern.TP(pattern.V("x"), pattern.C(pr), pattern.C(rdf.Literal("v"))),
			})
			got := u.CertainAnswers(q)
			if got.Len() != 3 {
				t.Errorf("want subjects {a,b,c}, got %v", got.Sorted())
			}
		})
	}
}

// Equivalence on predicates and objects propagates too.
func TestEquivalenceAllPositions(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	s1, p1, o1 := rdf.IRI("http://e/s1"), rdf.IRI("http://e/p1"), rdf.IRI("http://e/o1")
	p2, o2 := rdf.IRI("http://e/p2"), rdf.IRI("http://e/o2")
	if err := p.Add(rdf.Triple{S: s1, P: p1, O: o1}); err != nil {
		t.Fatal(err)
	}
	_ = sys.AddEquivalence(p1, p2)
	_ = sys.AddEquivalence(o1, o2)
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// all four combinations must be present
	for _, pp := range []rdf.Term{p1, p2} {
		for _, oo := range []rdf.Term{o1, o2} {
			if !u.Graph.Has(rdf.Triple{S: s1, P: pp, O: oo}) {
				t.Errorf("missing combination %v %v", pp, oo)
			}
		}
	}
}

// transitiveChainSystem builds a single peer with a chain a0 -A-> a1 ... and
// the transitive-closure mapping of Proposition 3.
func transitiveChainSystem(n int) *core.System {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	A := rdf.IRI("http://e/A")
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/a%d", i))
		o := rdf.IRI(fmt.Sprintf("http://e/a%d", i+1))
		if err := p.Add(rdf.Triple{S: s, P: A, O: o}); err != nil {
			panic(err)
		}
	}
	from := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("z")),
		pattern.TP(pattern.V("z"), pattern.C(A), pattern.V("y")),
	})
	to := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("y")),
	})
	if err := sys.AddMapping(core.GraphMappingAssertion{From: from, To: to, SrcPeer: "p", DstPeer: "p", Label: "transitive"}); err != nil {
		panic(err)
	}
	return sys
}

// The Proposition 3 mapping computes transitive closure; the chase must
// terminate with all n(n+1)/2 reachable pairs.
func TestTransitiveClosureChase(t *testing.T) {
	const n = 6 // chain of 7 nodes, 6 edges
	for _, mode := range []chase.Mode{chase.ModeDelta, chase.ModeNaive} {
		sys := transitiveChainSystem(n)
		u, err := chase.Run(sys, chase.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/A")), pattern.V("y")),
		})
		got := u.CertainAnswers(q)
		want := n * (n + 1) / 2
		if got.Len() != want {
			t.Errorf("mode %v: closure size = %d, want %d", mode, got.Len(), want)
		}
		if !sys.IsSolution(u.Graph) {
			t.Errorf("mode %v: closure result is not a solution", mode)
		}
	}
}

// Mapping cycles between peers must not prevent termination (the very
// scenario the paper says defeats pairwise rewriting systems).
func TestMappingCycleTerminates(t *testing.T) {
	sys := core.NewSystem()
	p1 := sys.AddPeer("p1")
	p2 := sys.AddPeer("p2")
	pa := rdf.IRI("http://e/pA")
	pb := rdf.IRI("http://e/pB")
	seed := rdf.IRI("http://e/seed")
	other := rdf.IRI("http://e/other")
	if err := p1.Add(rdf.Triple{S: seed, P: pa, O: other}); err != nil {
		t.Fatal(err)
	}
	// make both predicates known to both peers for schema validation
	if err := p2.Add(rdf.Triple{S: seed, P: pb, O: other}); err != nil {
		t.Fatal(err)
	}
	qa := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(pa), pattern.V("y")),
	})
	qb := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(pb), pattern.V("y")),
	})
	if err := sys.AddMapping(core.GraphMappingAssertion{From: qa, To: qb, SrcPeer: "p1", DstPeer: "p2", Label: "a->b"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMapping(core.GraphMappingAssertion{From: qb, To: qa, SrcPeer: "p2", DstPeer: "p1", Label: "b->a"}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []chase.Mode{chase.ModeDelta, chase.ModeNaive} {
		u, err := chase.Run(sys, chase.Options{Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		// both triples visible under both predicates
		for _, pr := range []rdf.Term{pa, pb} {
			q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
				pattern.TP(pattern.V("x"), pattern.C(pr), pattern.V("y")),
			})
			if u.CertainAnswers(q).Len() != 1 {
				t.Errorf("mode %v: predicate %v not integrated", mode, pr)
			}
		}
		if !sys.IsSolution(u.Graph) {
			t.Errorf("mode %v: not a solution", mode)
		}
	}
}

// A GMA whose head shares no variables is still handled (pure existential
// head), and repeated runs are deterministic in answer sets.
func TestExistentialHeadGMA(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	a, b, c := rdf.IRI("http://e/a"), rdf.IRI("http://e/hasThing"), rdf.IRI("http://e/thingOf")
	if err := p.Add(rdf.Triple{S: a, P: b, O: rdf.Literal("x")}); err != nil {
		t.Fatal(err)
	}
	// ensure c is in schema
	if err := p.Add(rdf.Triple{S: a, P: c, O: a}); err != nil {
		t.Fatal(err)
	}
	from := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(b), pattern.V("v")),
	})
	to := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(c), pattern.V("w")),
	})
	if err := sys.AddMapping(core.GraphMappingAssertion{From: from, To: to, SrcPeer: "p", DstPeer: "p"}); err != nil {
		t.Fatal(err)
	}
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.IsSolution(u.Graph) {
		t.Error("not a solution")
	}
}

// The GMA must NOT fire for tuples whose free variables bind blanks: the
// rt(x) atoms restrict firing to identified resources.
func TestGMADoesNotFireOnBlankTuples(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	pr := rdf.IRI("http://e/p")
	qr := rdf.IRI("http://e/q")
	// (blank, p, blank): the only match for the body
	if err := p.Add(rdf.Triple{S: rdf.Blank("b1"), P: pr, O: rdf.Blank("b2")}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(rdf.Triple{S: rdf.IRI("http://e/s"), P: qr, O: rdf.IRI("http://e/o")}); err != nil {
		t.Fatal(err)
	}
	from := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(pr), pattern.V("y")),
	})
	to := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(qr), pattern.V("y")),
	})
	if err := sys.AddMapping(core.GraphMappingAssertion{From: from, To: to, SrcPeer: "p", DstPeer: "p"}); err != nil {
		t.Fatal(err)
	}
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Stats.GMAFirings != 0 {
		t.Errorf("GMA fired %d times on blank-only tuples", u.Stats.GMAFirings)
	}
	if u.Graph.Has(rdf.Triple{S: rdf.Blank("b1"), P: qr, O: rdf.Blank("b2")}) {
		t.Error("blank tuple must not be propagated through the mapping")
	}
}

func TestMaxTriplesAborts(t *testing.T) {
	sys := transitiveChainSystem(20)
	_, err := chase.Run(sys, chase.Options{MaxTriples: 25})
	if err == nil {
		t.Error("expected MaxTriples abort")
	}
	_, err = chase.Run(sys, chase.Options{Mode: chase.ModeNaive, MaxTriples: 25})
	if err == nil {
		t.Error("expected MaxTriples abort (naive)")
	}
}

// Canonical and copy strategies agree on certain answers for the scaled
// film workload.
func TestEquivStrategiesAgree(t *testing.T) {
	cfg := workload.FilmConfig{Films: 8, ActorsPerFilm: 3, SameAsFraction: 0.7, Seed: 42}
	queries := []pattern.Query{
		workload.ScaledFilmQuery(0),
		workload.ScaledFilmQuery(2),
		workload.ScaledFilmQuery(7),
	}
	var reference []*pattern.TupleSet
	for i, opts := range allModes() {
		sys := workload.ScaledFilmSystem(cfg)
		u, err := chase.Run(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			got := u.CertainAnswers(q)
			if i == 0 {
				reference = append(reference, got)
				continue
			}
			if !got.Equal(reference[qi]) {
				t.Errorf("%s query %d: answers differ from reference:\n got %v\nwant %v",
					modeName(opts), qi, got.Sorted(), reference[qi].Sorted())
			}
		}
	}
	if len(reference) > 0 && reference[0].Len() == 0 {
		t.Error("reference answers empty; workload misconfigured")
	}
}

// Canonical mode materialises strictly fewer triples on equivalence-heavy
// data.
func TestCanonicalSmallerThanCopy(t *testing.T) {
	cfg := workload.FilmConfig{Films: 10, ActorsPerFilm: 3, SameAsFraction: 1.0, Seed: 7}
	sysCopy := workload.ScaledFilmSystem(cfg)
	uCopy, err := chase.Run(sysCopy, chase.Options{Equiv: chase.EquivCopy})
	if err != nil {
		t.Fatal(err)
	}
	sysCanon := workload.ScaledFilmSystem(cfg)
	uCanon, err := chase.Run(sysCanon, chase.Options{Equiv: chase.EquivCanonical})
	if err != nil {
		t.Fatal(err)
	}
	if uCanon.Graph.Len() >= uCopy.Graph.Len() {
		t.Errorf("canonical %d triples, copy %d; expected canonical to be smaller",
			uCanon.Graph.Len(), uCopy.Graph.Len())
	}
}

func TestAskOverUniversal(t *testing.T) {
	sys := workload.Figure1System()
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Example 3's boolean query: true over the universal solution
	q := workload.Example1Query()
	bq, err := q.Substitute(pattern.Tuple{
		rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("39"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !u.Ask(bq) {
		t.Error("boolean query should hold over the universal solution")
	}
	// and false on the stored database alone
	if plan.Ask(sys.StoredDatabase(), bq.GP) {
		t.Error("boolean query should fail over the stored database")
	}
	// non-boolean query via Ask
	if !u.Ask(q) {
		t.Error("Ask on non-boolean query should report non-empty answers")
	}
}

func TestCertainAnswersHelper(t *testing.T) {
	sys := workload.Figure1System()
	got, err := chase.CertainAnswers(sys, workload.Example1Query())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Errorf("helper answers = %d, want 6", got.Len())
	}
}

// An empty system chases to an empty universal solution without error.
func TestEmptySystem(t *testing.T) {
	sys := core.NewSystem()
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Graph.Len() != 0 || u.Stats.TriplesAdded != 0 {
		t.Errorf("empty system produced %d triples", u.Graph.Len())
	}
}
