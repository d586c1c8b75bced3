package rps_test

import (
	"testing"

	rps "repro"
	"repro/internal/workload"
)

// The facade end-to-end: build the Figure 1 system through the public API
// only and reproduce Listing 1.
func TestFacadeQuickstart(t *testing.T) {
	sys := rps.NewSystem()

	s1 := sys.AddPeer("source1")
	starring := rps.IRI("http://example.org/starring")
	artist := rps.IRI("http://example.org/artist")
	age := rps.IRI("http://example.org/age")
	actor := rps.IRI("http://example.org/actor")
	sameAs := rps.IRI(rps.OWLSameAs)

	db1 := func(s string) rps.Term { return rps.IRI("http://db1.example.org/" + s) }
	db2 := func(s string) rps.Term { return rps.IRI("http://db2.example.org/" + s) }
	foaf := func(s string) rps.Term { return rps.IRI("http://xmlns.com/foaf/0.1/" + s) }

	mustAdd := func(p *rps.Peer, ts ...rps.Triple) {
		t.Helper()
		for _, tr := range ts {
			if err := p.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustAdd(s1,
		rps.NewTriple(db1("Spiderman"), starring, rps.Blank("n1")),
		rps.NewTriple(rps.Blank("n1"), artist, db1("Toby_Maguire")),
		rps.NewTriple(db1("Spiderman"), starring, rps.Blank("n2")),
		rps.NewTriple(rps.Blank("n2"), artist, db1("Kirsten_Dunst")),
		rps.NewTriple(db1("Spiderman"), sameAs, db2("Spiderman2002")),
		rps.NewTriple(db1("Toby_Maguire"), sameAs, foaf("Toby_Maguire")),
		rps.NewTriple(db1("Kirsten_Dunst"), sameAs, foaf("Kirsten_Dunst")),
	)
	s2 := sys.AddPeer("source2")
	mustAdd(s2, rps.NewTriple(db2("Spiderman2002"), actor, db2("Willem_Dafoe")))
	s3 := sys.AddPeer("source3")
	mustAdd(s3,
		rps.NewTriple(foaf("Toby_Maguire"), age, rps.Literal("39")),
		rps.NewTriple(foaf("Kirsten_Dunst"), age, rps.Literal("32")),
		rps.NewTriple(foaf("Willem_Dafoe"), age, rps.Literal("59")),
		rps.NewTriple(foaf("Willem_Dafoe"), sameAs, db2("Willem_Dafoe")),
	)
	if n := sys.HarvestSameAs(); n != 4 {
		t.Fatalf("harvested %d equivalences", n)
	}

	q1 := rps.MustQuery([]string{"x", "y"}, rps.GraphPattern{
		rps.TP(rps.V("x"), rps.C(starring), rps.V("z")),
		rps.TP(rps.V("z"), rps.C(artist), rps.V("y")),
	})
	q2 := rps.MustQuery([]string{"x", "y"}, rps.GraphPattern{
		rps.TP(rps.V("x"), rps.C(actor), rps.V("y")),
	})
	if err := sys.AddMapping(rps.GraphMappingAssertion{
		From: q2, To: q1, SrcPeer: "source2", DstPeer: "source1", Label: "Q2~>Q1",
	}); err != nil {
		t.Fatal(err)
	}

	// SPARQL in, certain answers out
	query := rps.MustParseQuery(`
		PREFIX DB1: <http://db1.example.org/>
		PREFIX ex: <http://example.org/>
		SELECT ?x ?y WHERE { DB1:Spiderman ex:starring ?z . ?z ex:artist ?x . ?x ex:age ?y }`)
	got, err := rps.CertainAnswersSPARQL(sys, query)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Fatalf("certain answers = %d, want 6: %v", got.Len(), got.Sorted())
	}
	if !got.Has(rps.Tuple{db2("Willem_Dafoe"), rps.Literal("59")}) {
		t.Error("missing the integrated Willem Dafoe answer")
	}
}

func TestFacadeMaterializeAndRewrite(t *testing.T) {
	sys := workload.Figure1System()
	u, err := rps.Materialize(sys, rps.ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Example1Query()
	if u.CertainAnswers(q).Len() != 6 {
		t.Error("materialized answers wrong")
	}
	comb := rps.NewCombined(sys)
	answers, res, err := comb.Answer(q, rps.RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || answers.Len() != 6 {
		t.Errorf("combined answers = %d (truncated=%v)", answers.Len(), res.Truncated)
	}
}

func TestFacadeTurtleAndFederation(t *testing.T) {
	triples, err := rps.ParseTurtle(`
		@prefix DB1: <http://db1.example.org/> .
		@prefix ex: <http://example.org/> .
		DB1:Spiderman ex:year "2002" .
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 1 {
		t.Fatalf("triples = %v", triples)
	}

	sys := workload.Figure1System()
	net := rps.NewNetwork()
	reg := rps.NewRegistry()
	rps.DeployPeers(sys, net, reg)
	net.Register("mediator", nil)
	eng := rps.NewFederation(sys, reg, rps.NewPeerClient(net, "mediator"),
		rps.FederationOptions{})
	got, metrics, err := eng.Answer(workload.Example1Query())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Errorf("federated answers = %d, want 6", got.Len())
	}
	if metrics.RemoteCalls == 0 {
		t.Error("metrics missing")
	}
}
