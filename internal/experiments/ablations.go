package experiments

import (
	"fmt"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// AblationEquiv compares the two equivalence strategies of the chase
// (DESIGN.md §5): copy materialisation (Algorithm 1 as written) versus
// union-find canonicalisation with answer expansion.
func AblationEquiv(films []int) (*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: "Ablation — equivalence handling: copy (Algorithm 1) vs canonical representative",
		Columns: []string{"films", "stored", "copy triples", "copy time",
			"canonical triples", "canonical time", "answers agree"},
	}
	for _, n := range films {
		cfg := workload.FilmConfig{Films: n, ActorsPerFilm: 3, SameAsFraction: 1.0, Seed: 5}
		q := workload.ScaledFilmQuery(0)

		sysA := workload.ScaledFilmSystem(cfg)
		startA := time.Now()
		uA, err := chase.Run(sysA, chase.Options{Equiv: chase.EquivCopy})
		if err != nil {
			return nil, err
		}
		durA := time.Since(startA)
		ansA := uA.CertainAnswers(q)

		sysB := workload.ScaledFilmSystem(cfg)
		startB := time.Now()
		uB, err := chase.Run(sysB, chase.Options{Equiv: chase.EquivCanonical})
		if err != nil {
			return nil, err
		}
		durB := time.Since(startB)
		ansB := uB.CertainAnswers(q)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", sysA.StoredDatabase().Len()),
			fmt.Sprintf("%d", uA.Graph.Len()), ms(durA),
			fmt.Sprintf("%d", uB.Graph.Len()), ms(durB),
			fmt.Sprintf("%v", ansA.Equal(ansB)),
		})
	}
	t.Notes = append(t.Notes,
		"shape check: the canonical strategy materialises fewer triples at equal answers —",
		"the redundancy of Listing 1 is real storage cost for the copy strategy")
	return t, nil
}

// AblationChaseScheduling compares naive fixpoint rounds (Algorithm 1 as
// written) against the delta-driven work-list scheduler.
func AblationChaseScheduling(films []int) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation — chase scheduling: naive fixpoint vs delta work-list",
		Columns: []string{"films", "naive time", "delta time", "speedup", "answers agree"},
	}
	for _, n := range films {
		cfg := workload.FilmConfig{Films: n, ActorsPerFilm: 3, SameAsFraction: 0.5, Seed: 7}
		q := workload.ScaledFilmQuery(0)

		sysN := workload.ScaledFilmSystem(cfg)
		startN := time.Now()
		uN, err := chase.Run(sysN, chase.Options{Mode: chase.ModeNaive})
		if err != nil {
			return nil, err
		}
		durN := time.Since(startN)

		sysD := workload.ScaledFilmSystem(cfg)
		startD := time.Now()
		uD, err := chase.Run(sysD, chase.Options{Mode: chase.ModeDelta})
		if err != nil {
			return nil, err
		}
		durD := time.Since(startD)

		agree := uN.CertainAnswers(q).Equal(uD.CertainAnswers(q))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), ms(durN), ms(durD),
			fmt.Sprintf("%.2fx", float64(durN)/float64(durD)),
			fmt.Sprintf("%v", agree),
		})
	}
	t.Notes = append(t.Notes, "shape check: delta scheduling wins and widens with scale")
	return t, nil
}

// AblationJoinOrder compares greedy selectivity-based BGP join ordering
// against textual order on a path query over skewed data.
func AblationJoinOrder(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation — BGP join ordering: greedy selectivity vs textual order",
		Columns: []string{"triples", "textual", "greedy", "speedup", "results agree"},
	}
	for _, n := range sizes {
		g := skewedGraph(n)
		// textual order starts with the unselective pattern
		gp := pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/common")), pattern.V("y")),
			pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/rare")), pattern.C(rdf.Literal("target"))),
		}
		startT := time.Now()
		resT := pattern.EvalTextualOrder(g, gp)
		durT := time.Since(startT)
		startG := time.Now()
		resG := pattern.EvalGreedy(g, gp)
		durG := time.Since(startG)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", g.Len()), ms(durT), ms(durG),
			fmt.Sprintf("%.2fx", float64(durT)/float64(durG)),
			fmt.Sprintf("%v", len(resT) == len(resG)),
		})
	}
	t.Notes = append(t.Notes, "shape check: greedy ordering wins when the textual order is adversarial")
	return t, nil
}

func skewedGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	common := rdf.IRI("http://e/common")
	rare := rdf.IRI("http://e/rare")
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/s%d", i))
		g.Add(rdf.Triple{S: s, P: common, O: rdf.IRI(fmt.Sprintf("http://e/o%d", i%17))})
	}
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s1"), P: rare, O: rdf.Literal("target")})
	return g
}

// AblationFederationJoin tabulates the crossover the mediator's join step
// weighs: a selective pattern whose left side straddles the bind limit,
// joined against a bulky remote source. Up to the limit the step ships the
// left side's bindings (one probe wave, rows proportional to the answer);
// past it the step ships the extension (one call, rows proportional to the
// source).
func AblationFederationJoin(bulkSizes []int) (*Table, error) {
	t := &Table{
		ID:      "A4",
		Title:   "Ablation — federated join step: ship bindings vs ship the extension, left side straddling the bind limit",
		Columns: []string{"bulk triples", "left side", "strategy", "calls", "rows", "bytes", "answers agree"},
	}
	const limit = federation.DefaultBindLimit
	for _, bulk := range bulkSizes {
		for _, left := range []int{1, limit / 2, limit, limit + 1, 4 * limit} {
			sys := bulkSystem(bulk, left)
			net := simnet.New()
			reg := peer.NewRegistry()
			peer.Deploy(sys, net, reg)
			net.Register("mediator", nil)
			eng := federation.New(sys, reg, peer.NewClient(net, "mediator"), federation.Options{})
			q := pattern.MustQuery([]string{"n"}, pattern.GraphPattern{
				pattern.TP(pattern.C(rdf.IRI("http://e/alice")), pattern.C(rdf.IRI("http://e/likes")), pattern.V("x")),
				pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/name")), pattern.V("n")),
			})
			ans, m, err := eng.Answer(q)
			if err != nil {
				return nil, err
			}
			strategy := "extension"
			if m.BindSteps > 0 {
				strategy = "bind"
			}
			st := net.Stats()
			// no mappings: the certain answers are the stored database's
			want := plan.ExecuteQuery(sys.StoredDatabase(), q)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", bulk), fmt.Sprintf("%d", left), strategy,
				fmt.Sprintf("%d", m.RemoteCalls), fmt.Sprintf("%d", m.RowsFetched),
				fmt.Sprintf("%d", st.BytesSent+st.BytesRecv),
				fmt.Sprintf("%v", ans.Equal(want)),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("shape check: up to %d distinct bindings the step ships them (rows ≈ left side, ⌈left/%d⌉ probes + 1 calls);",
			limit, federation.DefaultBatchSize),
		"past it the step ships the extension (2 calls, rows ≈ bulk) — the crossover is one probe wave")
	return t, nil
}

// bulkSystem builds a two-peer system: a fact source where alice likes the
// first left persons, and a bulky name source naming bulk persons (at
// least those alice likes).
func bulkSystem(bulk, left int) *core.System {
	sys := core.NewSystem()
	facts := sys.AddPeer("facts")
	names := sys.AddPeer("names")
	likes := rdf.IRI("http://e/likes")
	name := rdf.IRI("http://e/name")
	for i := 0; i < max(bulk, left); i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/person%d", i))
		if i < left {
			if err := facts.Add(rdf.Triple{S: rdf.IRI("http://e/alice"), P: likes, O: s}); err != nil {
				panic(err)
			}
		}
		if err := names.Add(rdf.Triple{S: s, P: name, O: rdf.Literal(fmt.Sprintf("person %d", i))}); err != nil {
			panic(err)
		}
	}
	return sys
}

// AblationIncremental compares absorbing one new fact into an existing
// universal solution (incremental maintenance) against re-chasing the
// extended system from scratch — the dynamic-integration scenario of
// Example 2 / Section 5.
func AblationIncremental(films []int) (*Table, error) {
	t := &Table{
		ID:    "A5",
		Title: "Ablation — dynamic updates: incremental maintenance vs full re-chase",
		Columns: []string{"films", "solution triples", "incremental update", "full re-chase",
			"speedup", "answers agree"},
	}
	for _, n := range films {
		cfg := workload.FilmConfig{Films: n, ActorsPerFilm: 3, SameAsFraction: 0.5, Seed: 7}
		newActor := rdf.IRI(workload.NSDB2 + "NewActor")
		newTriple := rdf.Triple{
			S: rdf.IRI(workload.NSDB2 + "Film0_r"), P: workload.Actor, O: newActor,
		}
		ageTriple := rdf.Triple{S: newActor, P: workload.Age, O: rdf.Literal("41")}

		// incremental: materialise once, absorb the update
		sysInc := workload.ScaledFilmSystem(cfg)
		uInc, err := chase.Run(sysInc, chase.Options{})
		if err != nil {
			return nil, err
		}
		startInc := time.Now()
		if err := uInc.AddTriple("source2", newTriple); err != nil {
			return nil, err
		}
		if err := uInc.AddTriple("source3", ageTriple); err != nil {
			return nil, err
		}
		durInc := time.Since(startInc)

		// full: extend the stored data, chase from scratch
		sysFull := workload.ScaledFilmSystem(cfg)
		if err := sysFull.Peer("source2").Add(newTriple); err != nil {
			return nil, err
		}
		if err := sysFull.Peer("source3").Add(ageTriple); err != nil {
			return nil, err
		}
		startFull := time.Now()
		uFull, err := chase.Run(sysFull, chase.Options{})
		if err != nil {
			return nil, err
		}
		durFull := time.Since(startFull)

		q := workload.ScaledFilmQuery(0)
		agree := uInc.CertainAnswers(q).Equal(uFull.CertainAnswers(q))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", uInc.Graph.Len()),
			ms(durInc), ms(durFull),
			fmt.Sprintf("%.0fx", float64(durFull)/float64(durInc)),
			fmt.Sprintf("%v", agree),
		})
		if !agree {
			t.Notes = append(t.Notes, fmt.Sprintf("films=%d: ANSWER DISAGREEMENT", n))
		}
	}
	t.Notes = append(t.Notes,
		"shape check: the incremental update touches only the affected delta;",
		"its cost is independent of the solution size, unlike the re-chase")
	return t, nil
}
