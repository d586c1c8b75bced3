package datalog_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/workload"
)

func iri(s string) rdf.Term { return rdf.IRI("http://e/" + s) }

func TestRuleValidate(t *testing.T) {
	good := datalog.Rule{
		Head: datalog.NewAtom("p", pattern.V("x")),
		Body: []datalog.Atom{datalog.NewAtom("q", pattern.V("x"))},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	unsafe := datalog.Rule{
		Head: datalog.NewAtom("p", pattern.V("y")),
		Body: []datalog.Atom{datalog.NewAtom("q", pattern.V("x"))},
	}
	if err := unsafe.Validate(); err == nil {
		t.Error("unsafe head variable accepted")
	}
	skolemOK := datalog.Rule{
		Head:    datalog.NewAtom("p", pattern.V("x"), pattern.V("z")),
		Body:    []datalog.Atom{datalog.NewAtom("q", pattern.V("x"))},
		Skolems: []string{"z"},
	}
	if err := skolemOK.Validate(); err != nil {
		t.Errorf("skolem rule rejected: %v", err)
	}
	skolemBad := datalog.Rule{
		Head:    datalog.NewAtom("p", pattern.V("x")),
		Body:    []datalog.Atom{datalog.NewAtom("q", pattern.V("x"))},
		Skolems: []string{"x"},
	}
	if err := skolemBad.Validate(); err == nil {
		t.Error("skolem of a body variable accepted")
	}
	empty := datalog.Rule{Head: datalog.NewAtom("p", pattern.C(iri("a")))}
	if err := empty.Validate(); err == nil {
		t.Error("empty body accepted")
	}
}

// Plain transitive closure: the textbook Datalog case, which Proposition 3
// proves no UCQ can express.
func TestTransitiveClosure(t *testing.T) {
	p := &datalog.Program{Rules: []datalog.Rule{
		{
			Head: datalog.NewAtom("path", pattern.V("x"), pattern.V("y")),
			Body: []datalog.Atom{datalog.NewAtom("edge", pattern.V("x"), pattern.V("y"))},
		},
		{
			Head: datalog.NewAtom("path", pattern.V("x"), pattern.V("y")),
			Body: []datalog.Atom{
				datalog.NewAtom("edge", pattern.V("x"), pattern.V("z")),
				datalog.NewAtom("path", pattern.V("z"), pattern.V("y")),
			},
		},
	}}
	store := datalog.NewStore()
	const n = 30
	for i := 0; i < n; i++ {
		store.Insert("edge", pattern.Tuple{iri(fmt.Sprintf("n%d", i)), iri(fmt.Sprintf("n%d", i+1))})
	}
	stats, err := datalog.Eval(p, store)
	if err != nil {
		t.Fatal(err)
	}
	want := n * (n + 1) / 2
	if got := store.Facts("path").Len(); got != want {
		t.Errorf("closure size = %d, want %d", got, want)
	}
	if stats.Iterations < 2 {
		t.Errorf("iterations = %d", stats.Iterations)
	}
	if stats.SkolemsCreated != 0 {
		t.Error("no skolems expected")
	}
}

// The Datalog translation answers Figure 1 exactly like the chase.
func TestFigure1MatchesChase(t *testing.T) {
	sys := workload.Figure1System()
	q := workload.Example1Query()
	got, stats, err := datalog.CertainAnswers(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := u.CertainAnswers(q)
	if !got.Equal(want) {
		t.Errorf("datalog %v\nchase %v", got.Sorted(), want.Sorted())
	}
	if stats.SkolemsCreated == 0 {
		t.Error("the GMA has an existential: skolems expected")
	}
	if stats.FactsDerived == 0 {
		t.Error("no facts derived")
	}
}

// The headline capability: certain answers under the transitive-closure GMA
// of Proposition 3, where no finite UCQ exists. The Datalog program is
// fixed-size and complete for every chain length.
func TestProposition3ViaDatalog(t *testing.T) {
	for _, L := range []int{4, 16, 64} {
		sys := transitiveChainSystem(L)
		q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(iri("A")), pattern.V("y")),
		})
		got, _, err := datalog.CertainAnswers(sys, q)
		if err != nil {
			t.Fatal(err)
		}
		want := L * (L + 1) / 2
		if got.Len() != want {
			t.Errorf("L=%d: datalog closure = %d, want %d", L, got.Len(), want)
		}
	}
	// the program size is independent of L
	pSmall := datalog.FromSystem(transitiveChainSystem(4))
	pBig := datalog.FromSystem(transitiveChainSystem(64))
	if len(pSmall.Rules) != len(pBig.Rules) {
		t.Errorf("program size depends on data: %d vs %d", len(pSmall.Rules), len(pBig.Rules))
	}
}

func transitiveChainSystem(n int) *core.System {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	A := iri("A")
	for i := 0; i < n; i++ {
		if err := p.Add(rdf.Triple{S: iri(fmt.Sprintf("n%d", i)), P: A, O: iri(fmt.Sprintf("n%d", i+1))}); err != nil {
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

// Agreement sweep: datalog == chase on the scaled film workload and on LOD
// topologies including cycles.
func TestAgreementSweep(t *testing.T) {
	film := workload.ScaledFilmSystem(workload.FilmConfig{Films: 6, ActorsPerFilm: 2, SameAsFraction: 0.7, Seed: 3})
	queries := []pattern.Query{workload.ScaledFilmQuery(0), workload.ScaledFilmQuery(3)}
	u, err := chase.Run(film, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		got, _, err := datalog.CertainAnswers(film, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(u.CertainAnswers(q)) {
			t.Errorf("film query %d: datalog != chase", i)
		}
	}

	for _, top := range []workload.Topology{workload.Chain, workload.Cycle, workload.Star} {
		sys := workload.LODSystem(workload.LODConfig{
			Peers: 4, Topology: top, FactsPerPeer: 6, EntitiesPerPeer: 5,
			EquivFraction: 0.5, Shape: workload.EdgeToPath, Seed: 9,
		})
		q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(workload.LODPredicate(0, "via")), pattern.V("z")),
			pattern.TP(pattern.V("z"), pattern.C(workload.LODPredicate(0, "hop")), pattern.V("y")),
		})
		got, _, err := datalog.CertainAnswers(sys, q)
		if err != nil {
			t.Fatal(err)
		}
		uu, err := chase.Run(sys, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := uu.CertainAnswers(q)
		if !got.Equal(want) {
			t.Errorf("%v: datalog %d != chase %d", top, got.Len(), want.Len())
		}
	}
}

// Shared existentials across split head atoms must receive the same skolem.
func TestSkolemSharingAcrossHeadAtoms(t *testing.T) {
	sys := workload.Figure1System()
	program := datalog.FromSystem(sys)
	program.Rules = append(program.Rules, datalog.QueryRules(pattern.MustQuery(
		[]string{"f", "a"},
		pattern.GraphPattern{
			pattern.TP(pattern.V("f"), pattern.C(workload.Starring), pattern.V("n")),
			pattern.TP(pattern.V("n"), pattern.C(workload.Artist), pattern.V("a")),
		},
	)))
	store := datalog.EDBFromGraph(sys.StoredDatabase())
	if _, err := datalog.Eval(program, store); err != nil {
		t.Fatal(err)
	}
	// the path through the GMA's skolem must join: Willem Dafoe reachable
	ans := store.Facts(datalog.PredAnswer)
	found := false
	for _, tu := range ans.Sorted() {
		if tu[1] == rdf.IRI(workload.NSDB2+"Willem_Dafoe") {
			found = true
		}
	}
	if !found {
		t.Errorf("skolem-joined path missing: %v", ans.Sorted())
	}
}

// Skolems are reused per frontier tuple, not minted per derivation.
func TestSkolemDeterminism(t *testing.T) {
	sys := workload.Figure1System()
	q := workload.Example1Query()
	_, s1, err := datalog.CertainAnswers(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := datalog.CertainAnswers(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	if s1.SkolemsCreated != s2.SkolemsCreated || s1.FactsDerived != s2.FactsDerived {
		t.Errorf("evaluation not deterministic: %+v vs %+v", s1, s2)
	}
	// 6 actor-edge tuples reach the GMA (2 stored + equivalence copies),
	// each minting exactly one skolem
	if s1.SkolemsCreated != 6 {
		t.Errorf("skolems = %d, want 6", s1.SkolemsCreated)
	}
}

func TestBooleanQueryAndGraphExport(t *testing.T) {
	sys := workload.Figure1System()
	q := workload.Example1Query()
	bq, err := q.Substitute(pattern.Tuple{
		rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("39"),
	})
	if err != nil {
		t.Fatal(err)
	}
	program := datalog.FromSystem(sys)
	program.Rules = append(program.Rules, datalog.QueryRules(bq))
	store := datalog.EDBFromGraph(sys.StoredDatabase())
	if _, err := datalog.Eval(program, store); err != nil {
		t.Fatal(err)
	}
	if !datalog.BooleanQuery(store) {
		t.Error("boolean query should hold")
	}
	g := datalog.SkolemChaseGraph(store)
	if g.Len() < sys.StoredDatabase().Len() {
		t.Error("exported graph smaller than the stored database")
	}
	// the exported graph answers queries like the universal solution
	if plan.ExecuteQuery(g, q).Len() != 6 {
		t.Errorf("exported graph answers = %d", plan.ExecuteQuery(g, q).Len())
	}
}

func TestProgramStringAndValidate(t *testing.T) {
	sys := workload.Figure1System()
	p := datalog.FromSystem(sys)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := p.String()
	if !strings.Contains(out, ":-") || !strings.Contains(out, "skolem") {
		t.Errorf("program rendering:\n%s", out)
	}
	// 6 rules per equivalence + 2 for the two-atom GMA head
	want := 6*len(sys.E) + 2
	if len(p.Rules) != want {
		t.Errorf("rules = %d, want %d", len(p.Rules), want)
	}
}

// Boolean query with empty free variable list over an empty system.
func TestEmptySystem(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	if err := p.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")}); err != nil {
		t.Fatal(err)
	}
	q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(iri("p")), pattern.V("y")),
	})
	got, stats, err := datalog.CertainAnswers(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || stats.SkolemsCreated != 0 {
		t.Errorf("answers = %v, stats = %+v", got.Sorted(), stats)
	}
}
