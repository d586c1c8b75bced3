package federation_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
)

// deployOn is deploy over a caller-provided network (so tests can inject
// per-peer latency or failures before the engine runs).
func deployOn(sys *core.System, net *simnet.Network, opts federation.Options) *federation.Engine {
	return deployWireOn(sys, net, opts, false)
}

// oneShotClient hides peer.Client's QueryStream: a mediator over it reads
// each whole answer as a one-frame stream, as it does over any client that
// has only QueryContext (rpsd's in-process client, for one).
type oneShotClient struct{ federation.Client }

// deployWireOn is deployOn with the mediator over oneShotClient when
// oneShot is set, over peer.Client's streams otherwise.
func deployWireOn(sys *core.System, net *simnet.Network, opts federation.Options, oneShot bool) *federation.Engine {
	reg := peer.NewRegistry()
	peer.Deploy(sys, net, reg)
	net.Register("mediator", func(string, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	var client federation.Client = peer.NewClient(net, "mediator")
	if oneShot {
		client = oneShotClient{peer.NewClient(net, "mediator")}
	}
	return federation.New(sys, reg, client, opts)
}

// renameFanSystem builds k peers, each holding one predicate's triples, and
// rename mappings Pi → P0 so the query {?x P0 ?y} rewrites into a
// k-disjunct UCQ with exactly one disjunct routed to each peer — the shape
// where pushing the parallel Union below the mediator overlaps the peers'
// network latency.
func renameFanSystem(t testing.TB, k, factsPerPeer int) (*core.System, pattern.Query) {
	t.Helper()
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
				t.Fatal(err)
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
			t.Fatal(err)
		}
	}
	q := pattern.MustQuery([]string{"x", "y"},
		pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(preds[0]), pattern.V("y"))})
	return sys, q
}

// The parallel mediator is deterministic: repeated runs return the same
// answers — exactly the chase's certain answers — and ship the same rows.
func TestFederationDeterministic(t *testing.T) {
	sys, q := renameFanSystem(t, 6, 5)
	want := chaseAnswers(t, sys, q)
	if want.Len() != 30 {
		t.Fatalf("chase answers = %d, want 30", want.Len())
	}
	eng, _ := deploy(sys, federation.Options{})
	var first *federation.Metrics
	for run := 0; run < 3; run++ {
		got, m, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if m.Disjuncts != 6 || !got.Equal(want) {
			t.Fatalf("run %d: %d disjuncts, answers diverge from the chase:\n got %v\nwant %v",
				run, m.Disjuncts, got.Sorted(), want.Sorted())
		}
		if first == nil {
			first = m
		} else if m.RowsFetched != first.RowsFetched {
			t.Errorf("run %d: shipped %d rows, run 0 shipped %d", run, m.RowsFetched, first.RowsFetched)
		}
	}
}

// randomFederationCase builds a small random RDF Peer System — random peer
// partitions of the data, random mappings between peers (renames, and
// GMAs whose target joins two patterns through an existential variable, as
// Figure 1's does), an optional equivalence — and a random 1–3 pattern
// query (a scan with or without a non-answer variable, a 2-hop path, or a
// 2- or 3-hop path anchored at a constant, so both the up-front extension
// path and the step-by-step path are drawn), all over a shared constant
// pool. Every predicate is seeded at every peer so mapping vocabulary
// checks pass.
func randomFederationCase(t *testing.T, rng *rand.Rand) (*core.System, pattern.Query) {
	t.Helper()
	preds := make([]rdf.Term, 3)
	for i := range preds {
		preds[i] = rdf.IRI(fmt.Sprintf("http://e/p%d", i))
	}
	consts := make([]rdf.Term, 6)
	for i := range consts {
		consts[i] = rdf.IRI(fmt.Sprintf("http://e/c%d", i))
	}
	obj := func() rdf.Term {
		if rng.Intn(4) == 0 {
			return rdf.Literal(fmt.Sprintf("v%d", rng.Intn(3)))
		}
		return consts[rng.Intn(len(consts))]
	}
	sys := core.NewSystem()
	npeers := 2 + rng.Intn(2)
	names := make([]string, npeers)
	for i := 0; i < npeers; i++ {
		names[i] = fmt.Sprintf("peer%d", i)
		p := sys.AddPeer(names[i])
		for _, pr := range preds {
			if err := p.Add(rdf.Triple{S: consts[rng.Intn(len(consts))], P: pr, O: obj()}); err != nil {
				t.Fatal(err)
			}
		}
		for n := rng.Intn(6); n > 0; n-- {
			if err := p.Add(rdf.Triple{S: consts[rng.Intn(len(consts))], P: preds[rng.Intn(len(preds))], O: obj()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		x, y, z := pattern.V("x"), pattern.V("y"), pattern.V("z")
		target := pattern.GraphPattern{pattern.TP(x, pattern.C(preds[rng.Intn(len(preds))]), y)}
		if rng.Intn(3) == 0 {
			// Figure 1's shape: the target joins two patterns through an
			// existential variable, which the rewriting renames apart
			target = pattern.GraphPattern{
				pattern.TP(x, pattern.C(preds[rng.Intn(len(preds))]), z),
				pattern.TP(z, pattern.C(preds[rng.Intn(len(preds))]), y),
			}
		}
		m := core.GraphMappingAssertion{
			From: pattern.MustQuery([]string{"x", "y"},
				pattern.GraphPattern{pattern.TP(x, pattern.C(preds[rng.Intn(len(preds))]), y)}),
			To:      pattern.MustQuery([]string{"x", "y"}, target),
			SrcPeer: names[rng.Intn(npeers)],
			DstPeer: names[rng.Intn(npeers)],
		}
		if err := sys.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		if err := sys.AddEquivalence(consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]); err != nil {
			t.Fatal(err)
		}
	}
	pred := func() pattern.Elem { return pattern.C(preds[rng.Intn(len(preds))]) }
	var q pattern.Query
	switch rng.Intn(5) {
	case 0:
		q = pattern.MustQuery([]string{"x", "y"},
			pattern.GraphPattern{pattern.TP(pattern.V("x"), pred(), pattern.V("y"))})
	case 4:
		// a non-answer variable an existential of a target can absorb
		q = pattern.MustQuery([]string{"x"},
			pattern.GraphPattern{pattern.TP(pattern.V("x"), pred(), pattern.V("z"))})
	case 1:
		q = pattern.MustQuery([]string{"x", "z"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pred(), pattern.V("y")),
			pattern.TP(pattern.V("y"), pred(), pattern.V("z")),
		})
	case 2:
		q = pattern.MustQuery([]string{"y", "z"}, pattern.GraphPattern{
			pattern.TP(pattern.V("y"), pred(), pattern.V("z")),
			pattern.TP(pattern.C(consts[rng.Intn(len(consts))]), pred(), pattern.V("y")),
		})
	default:
		q = pattern.MustQuery([]string{"w"}, pattern.GraphPattern{
			pattern.TP(pattern.V("z"), pred(), pattern.V("w")),
			pattern.TP(pattern.C(consts[rng.Intn(len(consts))]), pred(), pattern.V("y")),
			pattern.TP(pattern.V("y"), pred(), pattern.V("z")),
		})
	}
	return sys, q
}

// TestFederationMatchesChaseRandom is the federation≡chase equivalence
// property: on random TGDs and random peer partitions of the data, the
// parallel federated answer set equals the single-store chase answer set,
// across probe batch sizes (batch 1 also shrinks the bind limit to the
// window, so small left sides reach the extension branch).
func TestFederationMatchesChaseRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys, q := randomFederationCase(t, rng)
		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			t.Fatalf("seed %d: chase: %v", seed, err)
		}
		want := u.CertainAnswers(q)
		for _, batch := range []int{1, 3} {
			eng, _ := deploy(sys, federation.Options{
				BatchSize: batch,
				Rewrite:   rewrite.Options{MaxQueries: 500000},
			})
			got, m, err := eng.Answer(q)
			if err != nil {
				t.Logf("seed %d batch %d: %v", seed, batch, err)
				return false
			}
			if m.RewriteTruncated {
				t.Logf("seed %d: rewriting truncated", seed)
				return false
			}
			if !got.Equal(want) {
				t.Logf("seed %d batch %d:\n got %v\nwant %v",
					seed, batch, got.Sorted(), want.Sorted())
				return false
			}
		}
		return true
	}
	n := 30
	if testing.Short() {
		n = 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// batchTradeoffSystem: a selective fact peer and a bulky name peer — the
// scenario where shipping bindings, and batching the probes, pays.
func batchTradeoffSystem(t testing.TB, likesCount int) (*core.System, pattern.Query) {
	t.Helper()
	sys := core.NewSystem()
	facts := sys.AddPeer("facts")
	bulk := sys.AddPeer("bulk")
	likes := rdf.IRI("http://e/likes")
	name := rdf.IRI("http://e/name")
	alice := rdf.IRI("http://e/alice")
	for i := 0; i < likesCount; i++ {
		person := rdf.IRI(fmt.Sprintf("http://e/person%d", i))
		if err := facts.Add(rdf.Triple{S: alice, P: likes, O: person}); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Add(rdf.Triple{S: person, P: name, O: rdf.Literal(fmt.Sprintf("n%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/other%d", i))
		if err := bulk.Add(rdf.Triple{S: s, P: name, O: rdf.Literal(fmt.Sprintf("x%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	q := pattern.MustQuery([]string{"n"}, pattern.GraphPattern{
		pattern.TP(pattern.C(alice), pattern.C(likes), pattern.V("x")),
		pattern.TP(pattern.V("x"), pattern.C(name), pattern.V("n")),
	})
	return sys, q
}

// Golden batching semantics: a 40-binding left side at batch sizes 1, 16
// and 1024 returns identical tuples, while the request count shrinks as the
// batch grows — 1 extension fetch plus ⌈40/B⌉ probes — and Batches counts
// exactly the multi-binding probe messages. The window is 40 wide so that
// the left side is one probe wave at every batch size, batch 1 included.
func TestBindJoinBatchSizes(t *testing.T) {
	sys, q := batchTradeoffSystem(t, 40)
	type golden struct{ calls, batches int }
	want := map[int]golden{
		1:    {calls: 1 + 40, batches: 0},
		16:   {calls: 1 + 3, batches: 3},
		1024: {calls: 1 + 1, batches: 1},
	}
	var first *pattern.TupleSet
	for _, batch := range []int{1, 16, 1024} {
		eng, net := deploy(sys, federation.Options{BatchSize: batch, MaxInFlight: 40})
		got, m, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 40 {
			t.Fatalf("batch %d: answers = %d, want 40", batch, got.Len())
		}
		if first == nil {
			first = got
		} else if !got.Equal(first) {
			t.Errorf("batch %d: answers differ from batch 1:\n got %v\nwant %v",
				batch, got.Sorted(), first.Sorted())
		}
		g := want[batch]
		if m.RemoteCalls != g.calls || m.Batches != g.batches {
			t.Errorf("batch %d: calls=%d batches=%d, want calls=%d batches=%d (metrics %+v)",
				batch, m.RemoteCalls, m.Batches, g.calls, g.batches, m)
		}
		if net.Stats().Calls != m.RemoteCalls {
			t.Errorf("batch %d: network calls %d != metric %d", batch, net.Stats().Calls, m.RemoteCalls)
		}
	}
	// sanity: batching must agree with the chase
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := u.CertainAnswers(q); !first.Equal(want) {
		t.Errorf("batched probes diverge from chase:\n got %v\nwant %v", first.Sorted(), want.Sorted())
	}
}

// A slow, jittery peer must not change answers — and under the parallel
// mediator the injected latency actually overlaps: the engine reports more
// than one request in flight.
func TestFederationSlowPeer(t *testing.T) {
	sys, q := renameFanSystem(t, 4, 4)
	baseEng, _ := deploy(sys, federation.Options{})
	want, _, err := baseEng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}

	net := simnet.New(simnet.WithRealDelay(), simnet.WithLatency(time.Millisecond), simnet.WithJitterSeed(3))
	net.SetNodeLatency("peer:peer2", 5*time.Millisecond, 2*time.Millisecond)
	eng := deployOn(sys, net, federation.Options{})
	got, m, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("slow peer changed answers:\n got %v\nwant %v", got.Sorted(), want.Sorted())
	}
	if runtime.GOMAXPROCS(0) > 1 {
		if m.InFlightMax < 2 {
			t.Errorf("InFlightMax = %d, want ≥2 (latency should overlap under the parallel mediator)", m.InFlightMax)
		}
		if net.Stats().MaxInFlight < 2 {
			t.Errorf("network MaxInFlight = %d, want ≥2", net.Stats().MaxInFlight)
		}
	}
}

// A peer dying mid-stream (after serving a few probes) surfaces as an
// unreachable-peer error, exactly like a peer that was down from the start
// (TestFederationFailedPeer) — never as silent answer loss.
func TestFederationPeerDiesMidStream(t *testing.T) {
	sys, q := batchTradeoffSystem(t, 40)
	eng, net := deploy(sys, federation.Options{BatchSize: 1, MaxInFlight: 40}) // 40 single-binding probes
	net.FailAfter("peer:bulk", 5)
	if _, _, err := eng.Answer(q); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	net.Heal("peer:bulk")
	got, _, err := eng.Answer(q)
	if err != nil {
		t.Fatalf("healed federation failed: %v", err)
	}
	if got.Len() != 40 {
		t.Errorf("healed answers = %d, want 40", got.Len())
	}
}

// The parallel executor must not leak goroutines — across repeated runs of
// a scan fan-out and of a probing chain, and the error path.
func TestFederationNoGoroutineLeak(t *testing.T) {
	sys, q := renameFanSystem(t, 4, 4)
	eng, net := deploy(sys, federation.Options{})
	chainSys, chainQ := batchTradeoffSystem(t, 40)
	engChain, _ := deploy(chainSys, federation.Options{})
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, _, err := eng.Answer(q); err != nil {
			t.Fatal(err)
		}
		if _, _, err := engChain.Answer(chainQ); err != nil {
			t.Fatal(err)
		}
	}
	net.Fail("peer:peer2")
	if _, _, err := eng.Answer(q); err == nil {
		t.Fatal("expected error from failed peer")
	}
	net.Heal("peer:peer2")
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
}

// The federated plan is a first-class plan: EXPLAIN shows RemoteScan leaves
// in join order with source fan-out, bind-or-fetch rule, and window
// annotations under the parallel Union — hash joins over streamed
// extensions for a body without constants, RemoteJoin steps for an anchored
// one — and draining the plan computes the mediator's answers and ships the
// mediator's rows.
func TestFederatedPlanExplainAndExecute(t *testing.T) {
	sys := core.NewSystem()
	a := sys.AddPeer("a")
	b := sys.AddPeer("b")
	p := rdf.IRI("http://e/p")
	qp := rdf.IRI("http://e/q")
	for i := 0; i < 6; i++ {
		if err := a.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)), P: p, O: rdf.IRI(fmt.Sprintf("http://e/m%d", i%3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := b.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/m%d", i)), P: qp, O: rdf.Literal(fmt.Sprintf("v%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		q       pattern.Query
		explain []string
		after   string // rendered once the plan ran
	}{
		{
			name: "unanchored",
			q: pattern.MustQuery([]string{"x", "z"}, pattern.GraphPattern{
				pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y")),
				pattern.TP(pattern.V("y"), pattern.C(qp), pattern.V("z")),
			}),
			explain: []string{
				"RemoteScan[?x <http://e/p> ?y] sources=1 stream window=2\n",
				"RemoteScan[?y <http://e/q> ?z] sources=1 stream window=2\n",
				"HashJoin[on y]",
			},
		},
		{
			name: "anchored",
			q: pattern.MustQuery([]string{"z"}, pattern.GraphPattern{
				pattern.TP(pattern.V("y"), pattern.C(qp), pattern.V("z")),
				pattern.TP(pattern.C(rdf.IRI("http://e/s1")), pattern.C(p), pattern.V("y")),
			}),
			explain: []string{
				"RemoteJoin[on y]\n" +
					"          RemoteScan[<http://e/s1> <http://e/p> ?y] sources=1 window=2\n" +
					"          RemoteScan[?y <http://e/q> ?z] sources=1 bind<=16 batch=8 window=2\n",
			},
			after: "RemoteScan[?y <http://e/q> ?z] sources=1 bind<=16 batch=8 window=2 strategy=bind\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := deploy(sys, federation.Options{BatchSize: 8, MaxInFlight: 2})
			pq, err := eng.Plan(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			s := pq.Explain()
			for _, want := range append(tc.explain,
				"-- federated UCQ of 1 disjuncts\n",
				"Union[parallel stream branches=1]") {
				if !strings.Contains(s, want) {
					t.Errorf("explain output missing %q:\n%s", want, s)
				}
			}

			rows := plan.Drain(pq.Root.Open(context.Background(), nil))
			if err := pq.Err(); err != nil {
				t.Fatal(err)
			}
			got := pattern.NewTupleSet()
			for _, mu := range rows {
				tu := make(pattern.Tuple, len(tc.q.Free))
				for i, v := range tc.q.Free {
					tu[i] = mu[v]
				}
				got.Add(tu)
			}
			want, m, err := eng.Answer(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || want.Len() == 0 {
				t.Errorf("plan execution diverges from Answer:\n got %v\nwant %v", got.Sorted(), want.Sorted())
			}
			pm := pq.Metrics()
			if pm.RemoteCalls == 0 || pm.SourcesContacted != 2 {
				t.Errorf("plan metrics = %+v", pm)
			}
			if pm.RowsFetched != m.RowsFetched || pm.BindSteps != m.BindSteps {
				t.Errorf("plan shipped %d rows in %d bind steps, Answer %d in %d",
					pm.RowsFetched, pm.BindSteps, m.RowsFetched, m.BindSteps)
			}
			if s := pq.Explain(); !strings.Contains(s, tc.after) {
				t.Errorf("explain after execution missing %q:\n%s", tc.after, s)
			}
		})
	}
}

// probeChainSystem is a 3-hop chain whose second and third patterns both
// route to the "bulk" peer: alice likes N persons (at "facts"), each
// person knows one friend and each friend has a name (at "bulk"), so both
// later hops are probes shipping N bindings.
func probeChainSystem(t testing.TB, n int) (*core.System, pattern.Query) {
	t.Helper()
	sys := core.NewSystem()
	facts := sys.AddPeer("facts")
	bulk := sys.AddPeer("bulk")
	likes := rdf.IRI("http://e/likes")
	knows := rdf.IRI("http://e/knows")
	name := rdf.IRI("http://e/name")
	alice := rdf.IRI("http://e/alice")
	for i := 0; i < n; i++ {
		person := rdf.IRI(fmt.Sprintf("http://e/person%d", i))
		friend := rdf.IRI(fmt.Sprintf("http://e/friend%d", i))
		if err := facts.Add(rdf.Triple{S: alice, P: likes, O: person}); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Add(rdf.Triple{S: person, P: knows, O: friend}); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Add(rdf.Triple{S: friend, P: name, O: rdf.Literal(fmt.Sprintf("n%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	q := pattern.MustQuery([]string{"n"}, pattern.GraphPattern{
		pattern.TP(pattern.C(alice), pattern.C(likes), pattern.V("x")),
		pattern.TP(pattern.V("x"), pattern.C(knows), pattern.V("y")),
		pattern.TP(pattern.V("y"), pattern.C(name), pattern.V("n")),
	})
	return sys, q
}

// Engine.Plan is one plan whatever the client: over a client that answers
// only whole (oneShotClient) its leaves stream as they do over
// peer.Client, the EXPLAIN is the same, and both drain to the same rows.
func TestPlanSameOverEveryClient(t *testing.T) {
	sys, q := renameFanSystem(t, 3, 20)
	var explains []string
	var results []*pattern.TupleSet
	for _, oneShot := range []bool{false, true} {
		eng := deployWireOn(sys, simnet.New(), federation.Options{}, oneShot)
		pq, err := eng.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		explains = append(explains, pq.Explain())
		got := pattern.NewTupleSet()
		for _, mu := range plan.Drain(pq.Root.Open(context.Background(), nil)) {
			got.Add(pattern.Tuple{mu["x"], mu["y"]})
		}
		if err := pq.Err(); err != nil {
			t.Fatalf("oneShot=%v: %v", oneShot, err)
		}
		results = append(results, got)
	}
	if !strings.Contains(explains[0], " stream") {
		t.Errorf("plan over peer.Client has no streamed leaf:\n%s", explains[0])
	}
	if explains[0] != explains[1] {
		t.Errorf("EXPLAIN differs by client:\npeer.Client:\n%s\noneShotClient:\n%s", explains[0], explains[1])
	}
	if results[0].Len() != 3*20 || !results[0].Equal(results[1]) {
		t.Errorf("drained rows differ by client: %d vs %d rows", results[0].Len(), results[1].Len())
	}
}
