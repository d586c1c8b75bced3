// The rewriting example walks through Section 4 of the paper: boolean query
// rewriting over the Figure 1 system (Listing 2), a perfect UCQ rewriting
// of the full Example 1 query (Proposition 2 — the mapping set is linear),
// and the transitive-closure mapping of Proposition 3, where no finite
// first-order rewriting exists and depth-bounded rewritings are forever
// incomplete while the chase answers exactly.
package main

import (
	"fmt"
	"log"

	rps "repro"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func main() {
	listing2()
	perfectRewriting()
	proposition3()
}

// listing2 reproduces the paper's Listing 2.
func listing2() {
	fmt.Println("== Listing 2: boolean query rewriting ==")
	sys := workload.Figure1System()
	ns := workload.FilmNamespaces()
	stored := sys.StoredDatabase()

	q := workload.Example1Query()
	tuple := rps.Tuple{rps.IRI("http://db1.example.org/Toby_Maguire"), rps.Literal("39")}
	bq, err := q.Substitute(tuple)
	if err != nil {
		log.Fatal(err)
	}
	ask := sparql.FromPatternQuery(bq, ns)
	fmt.Printf("boolean query for %v:\n  %s\n", tuple, ask)
	fmt.Printf("over the stored database: %v\n", plan.Ask(stored, bq.GP))

	res, err := rps.Rewrite(bq, sys, rps.RewriteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rewriting: %d disjuncts (saturated)\n", res.Size())
	fmt.Printf("rewritten query over the stored database: %v\n\n", res.Ask(stored))
}

// perfectRewriting shows Proposition 2 end to end on the open query.
func perfectRewriting() {
	fmt.Println("== Proposition 2: perfect FO rewriting (linear mapping set) ==")
	sys := workload.Figure1System()
	q := workload.Example1Query()

	res, err := rps.Rewrite(q, sys, rps.RewriteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	answers := res.Evaluate(sys.StoredDatabase())
	fmt.Printf("full UCQ: %d disjuncts; answers over the stored data: %d (equals the chase)\n",
		res.Size(), answers.Len())

	comb := rps.NewCombined(sys)
	cAnswers, cRes, err := comb.Answer(q, rps.RewriteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("combined approach: %d disjuncts (equivalences canonicalised); answers: %d\n\n",
		cRes.Size(), cAnswers.Len())
}

// proposition3 demonstrates non-FO-rewritability on transitive closure.
func proposition3() {
	fmt.Println("== Proposition 3: transitive closure is not FO-rewritable ==")
	A := rps.IRI("http://e/A")
	sigma := []rewrite.TripleTGD{{
		Body: rps.GraphPattern{
			rps.TP(rps.V("x"), rps.C(A), rps.V("z")),
			rps.TP(rps.V("z"), rps.C(A), rps.V("y")),
		},
		Head:  rps.GraphPattern{rps.TP(rps.V("x"), rps.C(A), rps.V("y"))},
		Label: "transitive",
	}}

	node := func(i int) rps.Term { return rps.IRI(fmt.Sprintf("http://e/n%d", i)) }
	for _, L := range []int{3, 5, 7} {
		// a chain n0 -A-> n1 -A-> … -A-> nL
		g := rps.NewGraph()
		for i := 0; i < L; i++ {
			g.Add(rps.NewTriple(node(i), A, node(i+1)))
		}
		ask := rps.Query{GP: rps.GraphPattern{rps.TP(rps.C(node(0)), rps.C(A), rps.C(node(L)))}}
		fmt.Printf("chain of length %d, asking (n0, A, n%d):\n", L, L)
		for depth := 1; depth <= L; depth++ {
			res, err := rewrite.RewriteTGDs(ask, sigma, rewrite.Options{MaxDepth: depth, MaxQueries: 1000000})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  depth %d: %d disjuncts, finds the pair: %v\n", depth, res.Size(), res.Ask(g))
			if res.Ask(g) {
				break
			}
		}
	}
	fmt.Println("every fixed depth fails on a long enough chain — no finite FO rewriting exists;")
	fmt.Println("the chase (Algorithm 1) stays complete and polynomial (Theorem 1).")
}
