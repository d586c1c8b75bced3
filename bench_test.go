// Benchmarks regenerating the experiments of the reproduction (E1–E10 and
// the ablations A1–A5, whose full tables cmd/rpsbench prints) plus the store
// and planner micro-benchmarks (AddSingle, SnapshotRead, PlanVsNaive, …) that
// CI smokes at -cpu 1,4. End-to-end and per-layer performance is measured by
// the repository benchmark under benchmark/.
package rps_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/discovery"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
	"repro/internal/sparql"
	"repro/internal/tgd"
	"repro/internal/turtle"
	"repro/internal/workload"
)

// BenchmarkE1_Listing1 chases the Figure 1 system and computes the Listing 1
// certain answers (Figures 1–2, Listing 1).
func BenchmarkE1_Listing1(b *testing.B) {
	q := workload.Example1Query()
	for i := 0; i < b.N; i++ {
		sys := workload.Figure1System()
		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if u.CertainAnswers(q).Len() != 6 {
			b.Fatal("Listing 1 mismatch")
		}
	}
}

// BenchmarkE2_Listing2 rewrites and verifies the Listing 2 boolean query.
func BenchmarkE2_Listing2(b *testing.B) {
	sys := workload.Figure1System()
	stored := sys.StoredDatabase()
	q := workload.Example1Query()
	bq, err := q.Substitute(pattern.Tuple{
		rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("39"),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rewrite.Rewrite(bq, sys, rewrite.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ask(stored) {
			b.Fatal("Listing 2 mismatch")
		}
	}
}

// BenchmarkE3_ChaseScaling measures Theorem 1's PTIME data complexity:
// chase time across doubling stored-database sizes.
func BenchmarkE3_ChaseScaling(b *testing.B) {
	for _, films := range []int{25, 50, 100, 200} {
		cfg := workload.FilmConfig{Films: films, ActorsPerFilm: 3, SameAsFraction: 0.5, Seed: 7}
		stored := workload.ScaledFilmSystem(cfg).StoredDatabase().Len()
		b.Run(fmt.Sprintf("films=%d/triples=%d", films, stored), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := workload.ScaledFilmSystem(cfg)
				b.StartTimer()
				u, err := chase.Run(sys, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(u.Stats.TriplesAdded), "inferred")
			}
		})
	}
}

// BenchmarkE4_Rewriting compares the Proposition 2 strategies as |E| grows:
// full UCQ rewriting vs the combined approach vs materialisation.
func BenchmarkE4_Rewriting(b *testing.B) {
	build := func(k int) *core.System {
		sys := workload.LODSystem(workload.LODConfig{
			Peers: 2, Topology: workload.Chain, FactsPerPeer: 30,
			EntitiesPerPeer: k + 2, EquivFraction: 0, Shape: workload.Rename, Seed: 13,
		})
		for e := 0; e < k; e++ {
			_ = sys.AddEquivalence(workload.LODEntity(0, e), workload.LODEntity(1, e))
		}
		return sys
	}
	q := workload.CoreQuery(1)
	for _, k := range []int{0, 4, 8} {
		sys := build(k)
		b.Run(fmt.Sprintf("full-rewrite/E=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := rewrite.Rewrite(q, sys, rewrite.Options{MaxQueries: 2000000})
				if err != nil {
					b.Fatal(err)
				}
				res.Evaluate(sys.StoredDatabase())
				b.ReportMetric(float64(res.Size()), "disjuncts")
			}
		})
		b.Run(fmt.Sprintf("combined/E=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				comb := rewrite.NewCombined(sys)
				if _, _, err := comb.Answer(q, rewrite.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("materialize/E=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Materialize(sys, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_NonFORewritability measures Proposition 3: UCQ growth of the
// depth-bounded rewriting under the transitive-closure mapping vs the
// always-complete chase.
func BenchmarkE5_NonFORewritability(b *testing.B) {
	A := rdf.IRI("http://e/A")
	sigma := []rewrite.TripleTGD{{
		Body: pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("z")),
			pattern.TP(pattern.V("z"), pattern.C(A), pattern.V("y")),
		},
		Head: pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("y"))},
	}}
	ask := pattern.Query{GP: pattern.GraphPattern{
		pattern.TP(pattern.C(rdf.IRI("http://e/n0")), pattern.C(A), pattern.C(rdf.IRI("http://e/n8"))),
	}}
	for _, depth := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("rewrite-depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := rewrite.RewriteTGDs(ask, sigma, rewrite.Options{MaxDepth: depth, MaxQueries: 2000000})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Size()), "disjuncts")
			}
		})
	}
	for _, L := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("chase-chain=%d", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := transitiveChainSystem(L)
				b.StartTimer()
				if _, err := chase.Run(sys, chase.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func transitiveChainSystem(n int) *core.System {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	A := rdf.IRI("http://e/A")
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/n%d", i))
		o := rdf.IRI(fmt.Sprintf("http://e/n%d", i+1))
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
	if err := sys.AddMapping(core.GraphMappingAssertion{From: from, To: to, SrcPeer: "p", DstPeer: "p"}); err != nil {
		panic(err)
	}
	return sys
}

// BenchmarkE6_Stickiness runs the Definition 4 marking procedure on the
// paper's dependency sets.
func BenchmarkE6_Stickiness(b *testing.B) {
	sys := workload.Figure1System()
	var sigma []tgd.TGD
	for _, e := range sys.E {
		sigma = append(sigma, core.EquivalenceTGDs(e)...)
	}
	sigma = append(sigma, core.MappingTGD(workload.FilmGMA()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tgd.Classify(sigma)
		if c.Linear {
			b.Fatal("full encoding must not be linear")
		}
	}
}

// BenchmarkE7_Federation measures the Section 5 prototype across peer
// counts and topologies.
func BenchmarkE7_Federation(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		for _, top := range []workload.Topology{workload.Chain, workload.Star, workload.Cycle} {
			b.Run(fmt.Sprintf("peers=%d/%s", k, top), func(b *testing.B) {
				sys := workload.LODSystem(workload.LODConfig{
					Peers: k, Topology: top, FactsPerPeer: 10, EntitiesPerPeer: 8,
					Shape: workload.Rename, Seed: 21,
				})
				net := simnet.New()
				reg := peer.NewRegistry()
				peer.Deploy(sys, net, reg)
				net.Register("mediator", nil)
				eng := federation.New(sys, reg, peer.NewClient(net, "mediator"), federation.Options{})
				q := workload.CoreQuery(k - 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := eng.Answer(q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(net.Stats().Calls)/float64(b.N), "calls/op")
			})
		}
	}
}

// BenchmarkE8_Baselines measures the completeness strategies across hop
// distances (the related-work gap).
func BenchmarkE8_Baselines(b *testing.B) {
	for _, hops := range []int{1, 2, 4} {
		sys := workload.HopSystem(hops, 6, 3)
		q := workload.CoreQuery(hops)
		b.Run(fmt.Sprintf("chase/hops=%d", hops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Materialize(sys, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("two-tier/hops=%d", hops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.TwoTier(sys, q)
			}
		})
		b.Run(fmt.Sprintf("full-rewrite/hops=%d", hops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.FullRewrite(sys, q, rewrite.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Equiv compares the chase's equivalence strategies
// (copy vs canonical representative).
func BenchmarkAblation_Equiv(b *testing.B) {
	cfg := workload.FilmConfig{Films: 40, ActorsPerFilm: 3, SameAsFraction: 1.0, Seed: 5}
	for _, mode := range []struct {
		name string
		eq   chase.EquivStrategy
	}{{"copy", chase.EquivCopy}, {"canonical", chase.EquivCanonical}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := workload.ScaledFilmSystem(cfg)
				b.StartTimer()
				u, err := chase.Run(sys, chase.Options{Equiv: mode.eq})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(u.Graph.Len()), "triples")
			}
		})
	}
}

// BenchmarkAblation_ChaseDelta compares naive fixpoint scheduling with the
// delta work-list.
func BenchmarkAblation_ChaseDelta(b *testing.B) {
	cfg := workload.FilmConfig{Films: 40, ActorsPerFilm: 3, SameAsFraction: 0.5, Seed: 7}
	for _, mode := range []struct {
		name string
		m    chase.Mode
	}{{"naive", chase.ModeNaive}, {"delta", chase.ModeDelta}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := workload.ScaledFilmSystem(cfg)
				b.StartTimer()
				if _, err := chase.Run(sys, chase.Options{Mode: mode.m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_JoinOrder compares greedy vs textual BGP join ordering
// on an adversarial pattern order.
func BenchmarkAblation_JoinOrder(b *testing.B) {
	g := rdf.NewGraph()
	common := rdf.IRI("http://e/common")
	rare := rdf.IRI("http://e/rare")
	for i := 0; i < 50000; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)),
			P: common,
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", i%17)),
		})
	}
	g.Add(rdf.Triple{S: rdf.IRI("http://e/s1"), P: rare, O: rdf.Literal("target")})
	gp := pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(common), pattern.V("y")),
		pattern.TP(pattern.V("x"), pattern.C(rare), pattern.C(rdf.Literal("target"))),
	}
	b.Run("textual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pattern.EvalTextualOrder(g, gp)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pattern.EvalGreedy(g, gp)
		}
	})
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan.Execute(g, gp)
		}
	})
}

// BenchmarkPlanVsNaive tracks the streaming cost-based planner against the
// Definition 1 oracle on the canonical join shapes (star and chain, with a
// selective pattern the planner must schedule first), and the parallel
// Union against serial evaluation on the UCQ shape internal/rewrite
// produces. These pin the planner's perf trajectory from the PR that
// introduced it onward.
func BenchmarkPlanVsNaive(b *testing.B) {
	shapes := []struct {
		name  string
		build func() (*rdf.Graph, pattern.GraphPattern)
	}{
		{"star", starShape}, {"chain", chainShape},
	}
	for _, shape := range shapes {
		g, gp := shape.build()
		rows := len(pattern.EvalNaive(g, gp))
		check := func(b *testing.B, got []pattern.Binding) {
			if len(got) != rows {
				b.Fatalf("rows = %d, want %d", len(got), rows)
			}
		}
		b.Run(shape.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				check(b, pattern.EvalNaive(g, gp))
			}
		})
		b.Run(shape.name+"/plan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				check(b, plan.Execute(g, gp))
			}
		})
	}
	for _, branches := range []int{2, 8} {
		g, qs := ucqShape(branches)
		b.Run(fmt.Sprintf("ucq/branches=%d/serial", branches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := pattern.NewTupleSet()
				for _, q := range qs {
					out.Merge(plan.ExecuteQuery(g, q))
				}
			}
		})
		b.Run(fmt.Sprintf("ucq/branches=%d/parallel", branches), func(b *testing.B) {
			if runtime.GOMAXPROCS(0) <= 1 {
				b.Skip("parallel union degrades to serial with GOMAXPROCS=1; the numbers would be misleading (re-run with -cpu 4)")
			}
			for i := 0; i < b.N; i++ {
				plan.UnionQueries(g, qs, false)
			}
		})
	}
}

// starShape: a hub query {?x p1 ?y1 . ?x p2 ?y2 . ?x p3 ?y3} where p1 is
// bulky, p2 medium and p3 rare; textual-order naive evaluation materialises
// the bulky extension first.
func starShape() (*rdf.Graph, pattern.GraphPattern) {
	g := rdf.NewGraph()
	p1, p2, p3 := rdf.IRI("http://e/p1"), rdf.IRI("http://e/p2"), rdf.IRI("http://e/p3")
	for i := 0; i < 3000; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/s%d", i))
		g.Add(rdf.Triple{S: s, P: p1, O: rdf.IRI(fmt.Sprintf("http://e/a%d", i))})
		if i%10 == 0 {
			g.Add(rdf.Triple{S: s, P: p2, O: rdf.IRI(fmt.Sprintf("http://e/b%d", i))})
		}
		if i%1000 == 0 {
			g.Add(rdf.Triple{S: s, P: p3, O: rdf.IRI(fmt.Sprintf("http://e/c%d", i))})
		}
	}
	return g, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(p1), pattern.V("y1")),
		pattern.TP(pattern.V("x"), pattern.C(p2), pattern.V("y2")),
		pattern.TP(pattern.V("x"), pattern.C(p3), pattern.V("y3")),
	}
}

// chainShape: a path query {?a p ?b . ?b q ?c . ?c r ?d} whose selective
// final hop the planner schedules first, walking the chain backwards
// through the POS index.
func chainShape() (*rdf.Graph, pattern.GraphPattern) {
	g := rdf.NewGraph()
	p, q, r := rdf.IRI("http://e/p"), rdf.IRI("http://e/q"), rdf.IRI("http://e/r")
	for i := 0; i < 3000; i++ {
		a := rdf.IRI(fmt.Sprintf("http://e/a%d", i))
		bn := rdf.IRI(fmt.Sprintf("http://e/b%d", i))
		cn := rdf.IRI(fmt.Sprintf("http://e/c%d", i%50))
		g.Add(rdf.Triple{S: a, P: p, O: bn})
		g.Add(rdf.Triple{S: bn, P: q, O: cn})
	}
	g.Add(rdf.Triple{S: rdf.IRI("http://e/c0"), P: r, O: rdf.Literal("end")})
	return g, pattern.GraphPattern{
		pattern.TP(pattern.V("a"), pattern.C(p), pattern.V("b")),
		pattern.TP(pattern.V("b"), pattern.C(q), pattern.V("c")),
		pattern.TP(pattern.V("c"), pattern.C(r), pattern.V("d")),
	}
}

// ucqShape: a union of per-branch two-pattern conjunctive queries — the
// shape a saturated rewriting hands to the executor — with enough work per
// branch for the parallel union's fan-out to matter.
func ucqShape(branches int) (*rdf.Graph, []pattern.Query) {
	g := rdf.NewGraph()
	var qs []pattern.Query
	for k := 0; k < branches; k++ {
		p := rdf.IRI(fmt.Sprintf("http://e/p%d", k))
		q := rdf.IRI(fmt.Sprintf("http://e/q%d", k))
		for i := 0; i < 2000; i++ {
			s := rdf.IRI(fmt.Sprintf("http://e/b%d_s%d", k, i))
			m := rdf.IRI(fmt.Sprintf("http://e/b%d_m%d", k, i%100))
			g.Add(rdf.Triple{S: s, P: p, O: m})
			g.Add(rdf.Triple{S: m, P: q, O: rdf.Literal(fmt.Sprintf("v%d", i%100))})
		}
		qs = append(qs, pattern.MustQuery([]string{"x", "v"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("m")),
			pattern.TP(pattern.V("m"), pattern.C(q), pattern.V("v")),
		}))
	}
	return g, qs
}

// BenchmarkAblation_FederationJoin runs a selective query against a bulky
// source with the left side on either side of the bind limit: the mediator
// ships its bindings up to the limit and the source's extension past it.
func BenchmarkAblation_FederationJoin(b *testing.B) {
	for _, left := range []int{federation.DefaultBindLimit, federation.DefaultBindLimit + 1} {
		b.Run(fmt.Sprintf("left=%d", left), func(b *testing.B) {
			sys := bulkFederationSystem(5000, left)
			net := simnet.New()
			reg := peer.NewRegistry()
			peer.Deploy(sys, net, reg)
			net.Register("mediator", nil)
			eng := federation.New(sys, reg, peer.NewClient(net, "mediator"), federation.Options{})
			q := pattern.MustQuery([]string{"n"}, pattern.GraphPattern{
				pattern.TP(pattern.C(rdf.IRI("http://e/alice")), pattern.C(rdf.IRI("http://e/likes")), pattern.V("x")),
				pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/name")), pattern.V("n")),
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Answer(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(net.Stats().BytesSent+net.Stats().BytesRecv)/float64(b.N), "bytes/op")
		})
	}
}

// --- micro-benchmarks of the substrates ---

func BenchmarkMicro_GraphAdd(b *testing.B) {
	terms := make([]rdf.Term, 256)
	for i := range terms {
		terms[i] = rdf.IRI(fmt.Sprintf("http://e/t%d", i))
	}
	b.ResetTimer()
	g := rdf.NewGraph()
	for i := 0; i < b.N; i++ {
		g.Add(rdf.Triple{S: terms[i%256], P: terms[(i/256)%256], O: terms[(i/65536)%256]})
	}
}

func BenchmarkMicro_GraphMatch(b *testing.B) {
	g := rdf.NewGraph()
	for i := 0; i < 10000; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i%100)),
			P: rdf.IRI(fmt.Sprintf("http://e/p%d", i%10)),
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", i)),
		})
	}
	p := rdf.IRI("http://e/p3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.Match(nil, &p, nil, func(rdf.Triple) bool { n++; return true })
	}
}

func BenchmarkMicro_BGPEval(b *testing.B) {
	sys := workload.ScaledFilmSystem(workload.FilmConfig{Films: 100, ActorsPerFilm: 3, SameAsFraction: 0.5, Seed: 7})
	g := sys.StoredDatabase()
	q := workload.ScaledFilmQuery(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.ExecuteQuery(g, q)
	}
}

func BenchmarkMicro_TurtleParse(b *testing.B) {
	sys := workload.ScaledFilmSystem(workload.FilmConfig{Films: 50, ActorsPerFilm: 3, SameAsFraction: 0.5, Seed: 7})
	text := turtle.FormatNTriples(sys.StoredDatabase())
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := turtle.NewParser(text, nil).Parse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_SPARQLParse(b *testing.B) {
	const q = `PREFIX DB1: <http://db1.example.org/>
PREFIX ex: <http://example.org/>
SELECT ?x ?y WHERE { DB1:Spiderman ex:starring ?z . ?z ex:artist ?x . ?x ex:age ?y }`
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// bulkFederationSystem builds a two-peer system: a fact source where alice
// likes the first left persons, and a bulky name source naming bulk persons.
func bulkFederationSystem(bulk, left int) *core.System {
	sys := core.NewSystem()
	facts := sys.AddPeer("facts")
	names := sys.AddPeer("names")
	likes := rdf.IRI("http://e/likes")
	name := rdf.IRI("http://e/name")
	for i := 0; i < bulk; i++ {
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

// fedFanSystem builds k peers, each holding one predicate's triples, and
// rename mappings Pi → P0, so querying {?x P0 ?y} yields a k-disjunct UCQ
// with one disjunct routed to each peer — the federated workload whose
// network latency the parallel mediator overlaps.
func fedFanSystem(k, factsPerPeer int) (*core.System, pattern.Query) {
	sys := core.NewSystem()
	preds := make([]rdf.Term, k)
	for i := range preds {
		preds[i] = rdf.IRI(fmt.Sprintf("http://e/P%d", i))
	}
	for i := 0; i < k; i++ {
		p := sys.AddPeer(fmt.Sprintf("peer%d", i))
		for j := 0; j < factsPerPeer; j++ {
			err := p.Add(rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("http://e/s%d_%d", i, j)),
				P: preds[i],
				O: rdf.IRI(fmt.Sprintf("http://e/o%d_%d", i, j)),
			})
			if err != nil {
				panic(err)
			}
		}
	}
	for i := 1; i < k; i++ {
		m := core.GraphMappingAssertion{
			From: pattern.MustQuery([]string{"x", "y"},
				pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(preds[i]), pattern.V("y"))}),
			To: pattern.MustQuery([]string{"x", "y"},
				pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(preds[0]), pattern.V("y"))}),
			SrcPeer: fmt.Sprintf("peer%d", i),
			DstPeer: "peer0",
		}
		if err := sys.AddMapping(m); err != nil {
			panic(err)
		}
	}
	return sys, pattern.MustQuery([]string{"x", "y"},
		pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(preds[0]), pattern.V("y"))})
}

// BenchmarkFederatedUCQ times the parallel mediator on a 4-disjunct UCQ
// whose disjuncts each route to a different peer, over a simnet that
// really sleeps 5ms per request: the disjuncts overlap their round trips
// as far as GOMAXPROCS allows. The bind/batch=… variants compare
// per-binding probing with batched probes at equal answer sets — calls/op
// drops as the batch grows.
func BenchmarkFederatedUCQ(b *testing.B) {
	const disjuncts = 4
	const latency = 5 * time.Millisecond
	sys, q := fedFanSystem(disjuncts, 8)
	b.Run("parallel", func(b *testing.B) {
		net := simnet.New(simnet.WithLatency(latency), simnet.WithRealDelay())
		reg := peer.NewRegistry()
		peer.Deploy(sys, net, reg)
		net.Register("mediator", nil)
		eng := federation.New(sys, reg, peer.NewClient(net, "mediator"), federation.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, _, err := eng.Answer(q)
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != disjuncts*8 {
				b.Fatalf("answers = %d, want %d", got.Len(), disjuncts*8)
			}
		}
	})
	bindSys, bindQ := bindBatchSystem(64)
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("bind/batch=%d", batch), func(b *testing.B) {
			net := simnet.New()
			reg := peer.NewRegistry()
			peer.Deploy(bindSys, net, reg)
			net.Register("mediator", nil)
			eng := federation.New(bindSys, reg, peer.NewClient(net, "mediator"),
				federation.Options{BatchSize: batch, MaxInFlight: 64}) // one probe wave at either batch size
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := eng.Answer(bindQ)
				if err != nil {
					b.Fatal(err)
				}
				if got.Len() != 64 {
					b.Fatalf("answers = %d, want 64", got.Len())
				}
			}
			b.ReportMetric(float64(net.Stats().Calls)/float64(b.N), "calls/op")
		})
	}
}

// bindBatchSystem is the bind-join batching scenario: a selective fact peer
// whose n bindings probe a bulky name peer — per-binding probing costs
// 1 + n requests, batched probing 1 + ⌈n/B⌉.
func bindBatchSystem(n int) (*core.System, pattern.Query) {
	sys := core.NewSystem()
	facts := sys.AddPeer("facts")
	bulk := sys.AddPeer("bulk")
	likes := rdf.IRI("http://e/likes")
	name := rdf.IRI("http://e/name")
	alice := rdf.IRI("http://e/alice")
	for i := 0; i < n; i++ {
		person := rdf.IRI(fmt.Sprintf("http://e/person%d", i))
		if err := facts.Add(rdf.Triple{S: alice, P: likes, O: person}); err != nil {
			panic(err)
		}
		if err := bulk.Add(rdf.Triple{S: person, P: name, O: rdf.Literal(fmt.Sprintf("n%d", i))}); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 2000; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/other%d", i))
		if err := bulk.Add(rdf.Triple{S: s, P: name, O: rdf.Literal(fmt.Sprintf("x%d", i))}); err != nil {
			panic(err)
		}
	}
	q := pattern.MustQuery([]string{"n"}, pattern.GraphPattern{
		pattern.TP(pattern.C(alice), pattern.C(likes), pattern.V("x")),
		pattern.TP(pattern.V("x"), pattern.C(name), pattern.V("n")),
	})
	return sys, q
}

// BenchmarkE9_Datalog measures the Datalog rewriting (future-work item 1)
// on the Proposition 3 workload, against the chase.
func BenchmarkE9_Datalog(b *testing.B) {
	for _, L := range []int{16, 64} {
		sys := transitiveChainSystem(L)
		q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(rdf.IRI("http://e/A")), pattern.V("y")),
		})
		b.Run(fmt.Sprintf("datalog/L=%d", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := datalog.CertainAnswers(sys, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("chase/L=%d", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := transitiveChainSystem(L)
				b.StartTimer()
				if _, err := chase.Run(fresh, chase.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_Discovery measures automatic mapping discovery on twin
// workloads (future-work item 3).
func BenchmarkE10_Discovery(b *testing.B) {
	for _, n := range []int{25, 100} {
		sys, _ := workload.TwinSystem(workload.TwinConfig{
			Entities: n, LiteralsPerEntity: 4, Facts: 2 * n, Noise: 0.2, Seed: 17,
		})
		b.Run(fmt.Sprintf("entities=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report := discovery.Discover(sys, discovery.Config{})
				if report.Total() == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// BenchmarkAblation_Incremental measures absorbing one update into a
// materialised solution vs re-chasing from scratch.
func BenchmarkAblation_Incremental(b *testing.B) {
	cfg := workload.FilmConfig{Films: 100, ActorsPerFilm: 3, SameAsFraction: 0.5, Seed: 7}
	b.Run("incremental", func(b *testing.B) {
		sys := workload.ScaledFilmSystem(cfg)
		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("http://db2.example.org/Bench%d", i)),
				P: workload.Actor,
				O: rdf.IRI(fmt.Sprintf("http://db2.example.org/BenchActor%d", i)),
			}
			if err := u.AddTriple("source2", t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rechase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := workload.ScaledFilmSystem(cfg)
			t := rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("http://db2.example.org/Bench%d", i)),
				P: workload.Actor,
				O: rdf.IRI(fmt.Sprintf("http://db2.example.org/BenchActor%d", i)),
			}
			if err := sys.Peer("source2").Add(t); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := chase.Run(sys, chase.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSink defeats dead-code elimination in the read benchmarks.
var benchSink int

// shardedReadGraph loads n triples over 3000 subjects and 7 predicates
// into a store with the given shard count.
func shardedReadGraph(shards, n int) (*rdf.Graph, []rdf.Term) {
	g := rdf.NewGraphSharded(shards)
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i%3000)),
			P: rdf.IRI(fmt.Sprintf("http://e/p%d", i%7)),
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", i)),
		})
	}
	g.AddAll(ts)
	subjects := make([]rdf.Term, 3000)
	for i := range subjects {
		subjects[i] = rdf.IRI(fmt.Sprintf("http://e/s%d", i))
	}
	return g, subjects
}

// BenchmarkShardedRead measures concurrent read throughput on the sharded
// store: every benchmark goroutine issues subject-bound index probes (the
// executor's hot path). Run with -cpu 1,4 to see read scaling; the
// shards=1 variant is the contention baseline.
func BenchmarkShardedRead(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			g, subjects := shardedReadGraph(shards, 30000)
			var rows atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i, n := 0, 0
				for pb.Next() {
					s := subjects[i%len(subjects)]
					i++
					g.Match(&s, nil, nil, func(rdf.Triple) bool { n++; return true })
				}
				rows.Add(int64(n))
			})
			benchSink += int(rows.Load())
		})
	}
}

// BenchmarkConcurrentLoad measures bulk-load throughput: AddAll fans the
// batch out across the shards when more than one CPU is available, so
// -cpu 1,4 shows write scaling. shards=1 pins the serial baseline.
func BenchmarkConcurrentLoad(b *testing.B) {
	const n = 50000
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i%10000)),
			P: rdf.IRI(fmt.Sprintf("http://e/p%d", i%17)),
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", i%5000)),
		})
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := rdf.NewGraphSharded(shards)
				if g.AddAll(ts) != n {
					b.Fatal("short load")
				}
			}
		})
	}
}

// BenchmarkFanoutScan compares the sequential and cross-shard parallel
// forms of a big object-bound scan — the access path whose OSP partition
// spans every shard.
func BenchmarkFanoutScan(b *testing.B) {
	g := rdf.NewGraphSharded(8)
	hub := rdf.IRI("http://e/hub")
	ts := make([]rdf.Triple, 0, 80000)
	for i := 0; i < 80000; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)),
			P: rdf.IRI(fmt.Sprintf("http://e/p%d", i%11)),
			O: hub,
		})
	}
	g.AddAll(ts)
	tp := pattern.TP(pattern.V("s"), pattern.V("p"), pattern.C(hub))
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rows := len(plan.Drain((&plan.IndexScan{TP: tp}).Open(context.Background(), g))); rows != 80000 {
				b.Fatalf("rows = %d", rows)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) <= 1 {
			b.Skip("fan-out scan degrades to serial with GOMAXPROCS=1; the numbers would be misleading (re-run with -cpu 4)")
		}
		sc := &plan.IndexScan{TP: tp, Fanout: g.ShardCount()}
		for i := 0; i < b.N; i++ {
			if rows := len(plan.Drain(sc.Open(context.Background(), g))); rows != 80000 {
				b.Fatalf("rows = %d", rows)
			}
		}
	})
}

// BenchmarkPlanCache pins the win of the shape-keyed plan cache on the
// chase-style workload: re-planning the same 3-pattern shape repeatedly.
func BenchmarkPlanCache(b *testing.B) {
	g, gp := chainShape()
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			plan.SetCacheEnabled(enabled)
			defer plan.SetCacheEnabled(true)
			plan.FlushCache()
			for i := 0; i < b.N; i++ {
				benchSink += len(plan.Execute(g, gp))
			}
		})
	}
}

// BenchmarkSnapshotReadUnderWrites is the PR 4 contention benchmark: the
// same mix of subject- and predicate-bound probes, on an idle store versus
// while a dedicated writer storms single-triple Add/Remove through the
// shards. With the epoch-based read path Match takes no locks, so the two
// numbers should sit within a small factor of each other and readers
// should scale with -cpu (on the seed's RWMutex shards, the writer
// serialised every reader behind it).
func BenchmarkSnapshotReadUnderWrites(b *testing.B) {
	for _, storm := range []bool{false, true} {
		name := "idle"
		if storm {
			name = "storm"
		}
		b.Run(name, func(b *testing.B) {
			g, subjects := shardedReadGraph(8, 30000)
			p0 := rdf.IRI("http://e/p0")
			stop := make(chan struct{})
			var wrote atomic.Int64
			if storm {
				go func() {
					i := 0
					for {
						select {
						case <-stop:
							return
						default:
						}
						t := rdf.Triple{
							S: rdf.IRI(fmt.Sprintf("http://e/w%d", i%4096)),
							P: rdf.IRI(fmt.Sprintf("http://e/p%d", i%7)),
							O: rdf.IRI(fmt.Sprintf("http://e/wo%d", i%4096)),
						}
						if !g.Add(t) {
							g.Remove(t)
						}
						wrote.Add(1)
						i++
					}
				}()
			}
			var rows atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i, n := 0, 0
				for pb.Next() {
					s := subjects[i%len(subjects)]
					i++
					g.Match(&s, nil, nil, func(rdf.Triple) bool { n++; return true })
					if i%8 == 0 {
						g.Match(nil, &p0, nil, func(rdf.Triple) bool { n++; return n%64 != 0 })
					}
				}
				rows.Add(int64(n))
			})
			b.StopTimer()
			close(stop)
			benchSink += int(rows.Load())
			if storm {
				b.ReportMetric(float64(wrote.Load()), "writes")
			}
		})
	}
}

// BenchmarkSnapshotCapture measures Graph.Snapshot: O(shards) pointer
// loads, no copying — cheap enough to take one per query.
func BenchmarkSnapshotCapture(b *testing.B) {
	g, _ := shardedReadGraph(8, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += g.Snapshot().Len()
	}
}

// benchTerms pre-builds term pools so the write benchmarks measure the
// store's write path, not fmt.Sprintf.
func benchTerms(prefix string, n int) []rdf.Term {
	ts := make([]rdf.Term, n)
	for i := range ts {
		ts[i] = rdf.IRI(fmt.Sprintf("http://bench/%s%d", prefix, i))
	}
	return ts
}

// benchTriples deterministically mixes the pools into m distinct triples —
// the shape of a mapping workload: many subjects, few predicates, a middle
// number of objects.
func benchTriples(m int) []rdf.Triple {
	subs := benchTerms("s", 4096)
	preds := benchTerms("p", 16)
	// 1021 is prime and coprime with the 65536-step (s, p) cycle, so the
	// object index never repeats for the same (s, p) within 65536×1021
	// triples: every generated triple is distinct.
	objs := benchTerms("o", 1021)
	ts := make([]rdf.Triple, m)
	for i := range ts {
		ts[i] = rdf.Triple{
			S: subs[i%len(subs)],
			P: preds[(i/len(subs))%len(preds)],
			O: objs[(i*2654435761)%len(objs)],
		}
	}
	return ts
}

// BenchmarkAddSingle is the PR 5 write-path microbenchmark: single-triple
// Add against a pre-populated store, terms pre-interned, so ns/op and
// allocs/op isolate the copied trie path (run with -benchmem; the PR 5
// acceptance bar is allocs/op at most half the PR 4 figure).
func BenchmarkAddSingle(b *testing.B) {
	const baseLen = 20000
	base := benchTriples(baseLen)
	// size the fresh pool to b.N so the loop never wraps: re-adding a
	// present triple takes the read-only duplicate probe, not the write
	// path this benchmark exists to measure
	pool := 1 << 20
	for pool < b.N+baseLen {
		pool <<= 1
	}
	fresh := benchTriples(pool)[baseLen:]
	g := rdf.NewGraph()
	g.AddAll(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Add(fresh[i])
	}
}

// BenchmarkAddAllBatch measures bulk load through the batch write path
// (one transient build, one publication and one epoch stamp per shard per
// batch) in ns/triple, against the mutable-map reference that PR 4
// replaced — the acceptance bar is staying within 1.5× of it.
func BenchmarkAddAllBatch(b *testing.B) {
	ts := benchTriples(100000)
	b.Run("graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := rdf.NewGraphSharded(1)
			g.AddAll(ts)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ts)), "ns/triple")
		}
	})
	b.Run("mapBaseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spo := map[rdf.Term]map[rdf.Term]map[rdf.Term]struct{}{}
			n := 0
			for _, t := range ts {
				pm, ok := spo[t.S]
				if !ok {
					pm = map[rdf.Term]map[rdf.Term]struct{}{}
					spo[t.S] = pm
				}
				om, ok := pm[t.P]
				if !ok {
					om = map[rdf.Term]struct{}{}
					pm[t.P] = om
				}
				if _, dup := om[t.O]; !dup {
					om[t.O] = struct{}{}
					n++
				}
			}
			if n == 0 {
				b.Fatal("empty load")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ts)), "ns/triple")
		}
	})
}

// BenchmarkChaseRoundWrite models the chase's per-round write phase: each
// op opens a batch, adds one round's worth of fired triples (most new,
// some duplicating earlier rounds), and commits — one publication per
// shard per round instead of one per triple.
func BenchmarkChaseRoundWrite(b *testing.B) {
	const round = 2048
	ts := benchTriples(1 << 20)
	g := rdf.NewGraph()
	g.AddAll(ts[:round])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * round * 3 / 4) % (len(ts) - round)
		batch := g.NewBatch()
		for _, t := range ts[lo : lo+round] {
			batch.Add(t)
		}
		batch.Commit()
	}
}
