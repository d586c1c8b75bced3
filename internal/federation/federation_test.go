package federation_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
	"repro/internal/workload"
)

func deploy(sys *core.System, opts federation.Options) (*federation.Engine, *simnet.Network) {
	net := simnet.New()
	reg := peer.NewRegistry()
	peer.Deploy(sys, net, reg)
	net.Register("mediator", func(string, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	client := peer.NewClient(net, "mediator")
	return federation.New(sys, reg, client, opts), net
}

// The federated engine must return exactly the Listing 1 certain answers —
// the prototype's promise: "the user poses a query ... and retrieves
// additional information ... in a transparent way".
func TestFederatedListing1(t *testing.T) {
	sys := workload.Figure1System()
	eng, net := deploy(sys, federation.Options{})
	got, m, err := eng.Answer(workload.Example1Query())
	if err != nil {
		t.Fatal(err)
	}
	want := pattern.NewTupleSet()
	for _, tu := range workload.Listing1Expected() {
		want.Add(tu)
	}
	if !got.Equal(want) {
		t.Errorf("answers\n got %v\nwant %v", got.Sorted(), want.Sorted())
	}
	if m.RemoteCalls == 0 || m.SourcesContacted == 0 || m.Disjuncts == 0 {
		t.Errorf("metrics = %+v", m)
	}
	if net.Stats().Calls != m.RemoteCalls {
		t.Errorf("network calls %d != metric %d", net.Stats().Calls, m.RemoteCalls)
	}
}

// Federated answers equal chase answers on the scaled workload.
func TestFederationMatchesChase(t *testing.T) {
	cfg := workload.FilmConfig{Films: 2, ActorsPerFilm: 2, SameAsFraction: 0.5, Seed: 11}
	sys := workload.ScaledFilmSystem(cfg)
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := deploy(sys, federation.Options{Rewrite: rewrite.Options{MaxQueries: 500000}})
	for f := 0; f < 2; f++ {
		q := workload.ScaledFilmQuery(f)
		got, m, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if m.RewriteTruncated {
			t.Fatalf("film %d: rewriting truncated", f)
		}
		want := u.CertainAnswers(q)
		if !got.Equal(want) {
			t.Errorf("film %d:\n got %v\nwant %v", f, got.Sorted(), want.Sorted())
		}
	}
}

// A selective query against a bulky source ships its bindings, not the
// source's extension: far fewer rows than the extension holds.
func TestJoinStrategyTradeoff(t *testing.T) {
	sys := core.NewSystem()
	p1 := sys.AddPeer("facts")
	p2 := sys.AddPeer("bulk")
	likes := rdf.IRI("http://e/likes")
	name := rdf.IRI("http://e/name")
	alice := rdf.IRI("http://e/alice")
	// facts: one triple; bulk: many names
	if err := p1.Add(rdf.Triple{S: alice, P: likes, O: rdf.IRI("http://e/bob")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s := rdf.IRI(rdf.IRI("http://e/p").Value() + string(rune('a'+i%26)) + string(rune('0'+i%10)))
		if err := p2.Add(rdf.Triple{S: s, P: name, O: rdf.Literal("n")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p2.Add(rdf.Triple{S: rdf.IRI("http://e/bob"), P: name, O: rdf.Literal("Bob")}); err != nil {
		t.Fatal(err)
	}
	q := pattern.MustQuery([]string{"n"}, pattern.GraphPattern{
		pattern.TP(pattern.C(alice), pattern.C(likes), pattern.V("x")),
		pattern.TP(pattern.V("x"), pattern.C(name), pattern.V("n")),
	})

	eng, _ := deploy(sys, federation.Options{})
	got, m, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("answers = %v", got.Sorted())
	}
	if m.BindSteps != 1 || m.ExtensionSteps != 0 {
		t.Errorf("steps: bind=%d extension=%d, want 1/0", m.BindSteps, m.ExtensionSteps)
	}
	if extension := p2.Data().Len(); m.RowsFetched != 2 || m.RowsFetched >= extension {
		t.Errorf("shipped %d rows, want 2 (one per pattern) — the bulk source's extension holds %d",
			m.RowsFetched, extension)
	}
}

// Source selection must keep irrelevant peers out of the conversation.
func TestSourceSelectionSkipsIrrelevantPeers(t *testing.T) {
	sys := workload.Figure1System()
	eng, net := deploy(sys, federation.Options{})
	// a query purely in source3's vocabulary
	q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(workload.Age), pattern.C(rdf.Literal("59"))),
	})
	_, m, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	// source2 must never be contacted: age is not in its schema and no
	// rewriting maps age into source2's vocabulary
	if link := net.Link("mediator", "peer:source2"); link.Calls != 0 {
		t.Errorf("source2 contacted %d times", link.Calls)
	}
}

// A failed peer surfaces as an error rather than silent answer loss.
func TestFederationFailedPeer(t *testing.T) {
	sys := workload.Figure1System()
	eng, net := deploy(sys, federation.Options{})
	q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(workload.Age), pattern.C(rdf.Literal("59"))),
	})
	net.Fail("peer:source3")
	if _, _, err := eng.Answer(q); err == nil {
		t.Error("expected error for failed peer")
	}
	net.Heal("peer:source3")
	if _, _, err := eng.Answer(q); err != nil {
		t.Errorf("healed federation failed: %v", err)
	}
}

// AnswerWithTGDs with an empty set degrades to plain federated evaluation
// (no integration) — the E8 baseline.
func TestAnswerWithoutMappings(t *testing.T) {
	sys := workload.Figure1System()
	eng, _ := deploy(sys, federation.Options{})
	got, m, err := eng.AnswerWithTGDs(workload.Example1Query(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("no-mapping evaluation should be empty (Example 1), got %v", got.Sorted())
	}
	if m.Disjuncts != 1 {
		t.Errorf("disjuncts = %d", m.Disjuncts)
	}
}

// Boolean (ASK-style) federated queries work end to end.
func TestFederatedBooleanQuery(t *testing.T) {
	sys := workload.Figure1System()
	eng, _ := deploy(sys, federation.Options{})
	q := workload.Example1Query()
	bq, err := q.Substitute(pattern.Tuple{
		rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("39"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eng.Answer(bq)
	if err != nil {
		t.Fatal(err)
	}
	// boolean query: one empty tuple means true
	if got.Len() != 1 {
		t.Errorf("boolean federated query should hold: %v", got.Sorted())
	}
}

// figure1Queries are the queries the E-tables of internal/experiments
// pose over the Figure 1 system — E1's Example 1 query and E2's boolean
// query for (DB1:Toby_Maguire, "39") — plus the queries whose rewritings
// keep a renamed-apart GMA variable (g<N>·b_y) in a body that crosses the
// wire: Q1's starring pattern with its artist join absorbed by the
// mapping's existential, as SELECT and as ASK.
func figure1Queries(t *testing.T) map[string]pattern.Query {
	t.Helper()
	q := workload.Example1Query()
	e2, err := q.Substitute(pattern.Tuple{rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("39")})
	if err != nil {
		t.Fatal(err)
	}
	e2Other, err := q.Substitute(pattern.Tuple{rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("40")})
	if err != nil {
		t.Fatal(err)
	}
	starring := pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(workload.Starring), pattern.V("z"))}
	return map[string]pattern.Query{
		"E1":            q,
		"E2":            e2,
		"E2 same shape": e2Other,
		"starring":      pattern.MustQuery([]string{"x"}, starring),
		"ASK starring":  {GP: starring},
	}
}

// Federation answers every Figure 1 query of the E-tables with the chase's
// certain answers, on the streamed and the one-shot wire alike. (E1's
// rewriting has 20 196 disjuncts and takes seconds; one wire is enough for
// it.)
func TestFigure1FederationMatchesChase(t *testing.T) {
	sys := workload.Figure1System()
	queries := figure1Queries(t)
	if want := chaseAnswers(t, sys, queries["starring"]); want.Len() != 3 {
		t.Fatalf("chase: %d answers to the starring query, want 3", want.Len())
	}
	for _, oneShot := range []bool{false, true} {
		eng := deployWireOn(sys, simnet.New(), federation.Options{}, oneShot)
		for name, q := range queries {
			if oneShot && name == "E1" {
				continue
			}
			got, m, err := eng.Answer(q)
			if err != nil {
				t.Errorf("oneShot=%v %s: %v", oneShot, name, err)
				continue
			}
			if want := chaseAnswers(t, sys, q); m.RewriteTruncated || !got.Equal(want) {
				t.Errorf("oneShot=%v %s (truncated %v):\n got %v\nwant %v",
					oneShot, name, m.RewriteTruncated, got.Sorted(), want.Sorted())
			}
		}
	}
}

// The engine rewrites once per query shape: a second query differing only
// in a constant no mapping mentions is a memo hit, counted by
// rps_fed_rewrite_memo_total, and Plan goes through the same memo.
func TestRewriteMemoHits(t *testing.T) {
	sys := workload.Figure1System()
	queries := figure1Queries(t)
	eng, _ := deploy(sys, federation.Options{})
	memo := func() (hits, misses float64) {
		s := obs.Default.Snapshot()
		return s[`rps_fed_rewrite_memo_total{result="hit"}`], s[`rps_fed_rewrite_memo_total{result="miss"}`]
	}
	h0, m0 := memo()
	_, first, err := eng.Answer(queries["E2"])
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := memo()
	got, _, err := eng.Answer(queries["E2 same shape"])
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("Toby Maguire is not 40: %v", got.Sorted())
	}
	p, err := eng.Plan(queries["E2"])
	if err != nil {
		t.Fatal(err)
	}
	h2, m2 := memo()
	if m1-m0 != 1 || h1 != h0 || h2-h1 != 2 || m2 != m1 {
		t.Errorf("memo counters moved hits %v→%v→%v, misses %v→%v→%v; want one miss, then two hits",
			h0, h1, h2, m0, m1, m2)
	}
	if p.Rewriting.Size() != first.Disjuncts {
		t.Errorf("Plan rewrote into %d disjuncts, Answer into %d", p.Rewriting.Size(), first.Disjuncts)
	}
}
