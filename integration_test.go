// Cross-module property tests: on randomly generated peer systems, the four
// answering strategies (chase, full UCQ rewriting, Datalog rewriting,
// federated execution) must agree, and every chase result must be a
// solution in the sense of Definition 2.
package rps_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
)

// randomSystem builds a small random RPS: 2–3 peers, random triples over a
// small vocabulary, random rename GMAs between peers, and a few random
// equivalences. All mapping sets are linear, so the UCQ rewriting is exact.
func randomSystem(rng *rand.Rand) *core.System {
	sys := core.NewSystem()
	nPeers := 2 + rng.Intn(2)
	ent := func(p, i int) rdf.Term {
		return rdf.IRI(fmt.Sprintf("http://p%d.e/ent%d", p, i))
	}
	pred := func(p, i int) rdf.Term {
		return rdf.IRI(fmt.Sprintf("http://p%d.e/pred%d", p, i))
	}
	const nEnt, nPred = 5, 2
	for p := 0; p < nPeers; p++ {
		pr := sys.AddPeer(fmt.Sprintf("p%d", p))
		nTriples := 3 + rng.Intn(8)
		for i := 0; i < nTriples; i++ {
			t := rdf.Triple{
				S: ent(p, rng.Intn(nEnt)),
				P: pred(p, rng.Intn(nPred)),
				O: ent(p, rng.Intn(nEnt)),
			}
			if rng.Intn(4) == 0 {
				t.O = rdf.Literal(fmt.Sprintf("v%d", rng.Intn(3)))
			}
			if err := pr.Add(t); err != nil {
				panic(err)
			}
		}
		// ensure the full vocabulary is in the schema for mapping checks
		for i := 0; i < nPred; i++ {
			pr.Schema().Add(pred(p, i))
		}
	}
	// random rename mappings
	nMaps := rng.Intn(4)
	for m := 0; m < nMaps; m++ {
		src, dst := rng.Intn(nPeers), rng.Intn(nPeers)
		if src == dst {
			continue
		}
		from := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(pred(src, rng.Intn(nPred))), pattern.V("y")),
		})
		to := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(pred(dst, rng.Intn(nPred))), pattern.V("y")),
		})
		if err := sys.AddMapping(core.GraphMappingAssertion{
			From: from, To: to,
			SrcPeer: fmt.Sprintf("p%d", src), DstPeer: fmt.Sprintf("p%d", dst),
			Label: fmt.Sprintf("m%d", m),
		}); err != nil {
			panic(err)
		}
	}
	// random equivalences
	nEq := rng.Intn(4)
	for e := 0; e < nEq; e++ {
		a := ent(rng.Intn(nPeers), rng.Intn(nEnt))
		b := ent(rng.Intn(nPeers), rng.Intn(nEnt))
		_ = sys.AddEquivalence(a, b)
	}
	return sys
}

func randomQuery(rng *rand.Rand, nPeers int) pattern.Query {
	pred := func(p, i int) rdf.Term {
		return rdf.IRI(fmt.Sprintf("http://p%d.e/pred%d", p, i))
	}
	p := rng.Intn(nPeers)
	switch rng.Intn(3) {
	case 0: // single edge
		return pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(pred(p, rng.Intn(2))), pattern.V("y")),
		})
	case 1: // path of two edges
		return pattern.MustQuery([]string{"x", "z"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(pred(p, 0)), pattern.V("y")),
			pattern.TP(pattern.V("y"), pattern.C(pred(p, 1)), pattern.V("z")),
		})
	default: // star with existential
		return pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(pred(p, 0)), pattern.V("y")),
			pattern.TP(pattern.V("x"), pattern.C(pred(p, 1)), pattern.V("z")),
		})
	}
}

// TestPropertyStrategiesAgree is the big cross-module invariant.
func TestPropertyStrategiesAgree(t *testing.T) {
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		sys := randomSystem(rng)
		q := randomQuery(rng, len(sys.Peers()))

		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			t.Fatalf("trial %d: chase: %v", trial, err)
		}
		want := u.CertainAnswers(q)

		// Definition 2: the chased database is a solution
		if viol := sys.CheckSolution(u.Graph); len(viol) != 0 {
			t.Fatalf("trial %d: universal solution violates Definition 2: %v", trial, viol)
		}

		// naive chase agrees
		sysN := sys // chase does not mutate the system
		uN, err := chase.Run(sysN, chase.Options{Mode: chase.ModeNaive})
		if err != nil {
			t.Fatalf("trial %d: naive chase: %v", trial, err)
		}
		if !uN.CertainAnswers(q).Equal(want) {
			t.Errorf("trial %d: naive chase disagrees", trial)
		}

		// full UCQ rewriting agrees (mapping set is linear)
		res, err := rewrite.Rewrite(q, sys, rewrite.Options{MaxQueries: 500000})
		if err != nil {
			t.Fatalf("trial %d: rewrite: %v", trial, err)
		}
		if res.Truncated {
			t.Fatalf("trial %d: linear rewriting truncated at %d disjuncts", trial, res.Size())
		}
		if got := res.Evaluate(sys.StoredDatabase()); !got.Equal(want) {
			t.Errorf("trial %d: rewriting disagrees:\n got %v\nwant %v\nsystem:\n%s",
				trial, got.Sorted(), want.Sorted(), sys.Describe(nil))
		}

		// combined approach agrees
		comb := rewrite.NewCombined(sys)
		gotC, resC, err := comb.Answer(q, rewrite.Options{})
		if err != nil {
			t.Fatalf("trial %d: combined: %v", trial, err)
		}
		if resC.Truncated {
			t.Fatalf("trial %d: combined truncated", trial)
		}
		if !gotC.Equal(want) {
			t.Errorf("trial %d: combined disagrees: got %v want %v", trial, gotC.Sorted(), want.Sorted())
		}

		// Datalog rewriting agrees
		gotD, _, err := datalog.CertainAnswers(sys, q)
		if err != nil {
			t.Fatalf("trial %d: datalog: %v", trial, err)
		}
		if !gotD.Equal(want) {
			t.Errorf("trial %d: datalog disagrees: got %v want %v", trial, gotD.Sorted(), want.Sorted())
		}
	}
}

// TestPropertyFederationAgrees runs the federated engine against the chase
// on random systems (fewer trials; each deploys a network).
func TestPropertyFederationAgrees(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		sys := randomSystem(rng)
		q := randomQuery(rng, len(sys.Peers()))

		want, err := chase.CertainAnswers(sys, q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		net := simnet.New()
		reg := peer.NewRegistry()
		peer.Deploy(sys, net, reg)
		net.Register("mediator", nil)
		eng := federation.New(sys, reg, peer.NewClient(net, "mediator"),
			federation.Options{Rewrite: rewrite.Options{MaxQueries: 500000}})
		got, m, err := eng.Answer(q)
		if err != nil {
			t.Fatalf("trial %d %v", trial, err)
		}
		if m.RewriteTruncated {
			t.Fatalf("trial %d truncated", trial)
		}
		if !got.Equal(want) {
			t.Errorf("trial %d federation disagrees: got %v want %v",
				trial, got.Sorted(), want.Sorted())
		}
	}
}
