package pattern_test

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
)

// TestQueryBlankSemantics pins the difference between Q_D and Q*_D on a
// blank node at an answer position: Q_D drops the blank tuple, Q*_D keeps
// it. The answers come from internal/plan, the package's query evaluator.
func TestQueryBlankSemantics(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.IRI("http://e/" + s) }
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: rdf.Blank("n1")})
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	q := pattern.MustQuery([]string{"o"}, pattern.GraphPattern{
		pattern.TP(pattern.C(iri("a")), pattern.C(iri("p")), pattern.V("o")),
	})
	plain := plan.ExecuteQuery(g, q)
	star := plan.ExecuteQueryStar(g, q)
	if plain.Len() != 1 {
		t.Errorf("Q_D must drop blank tuples, got %v", plain.Sorted())
	}
	if star.Len() != 2 {
		t.Errorf("Q*_D must keep blank tuples, got %v", star.Sorted())
	}
}
