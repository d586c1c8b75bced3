package federation_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/rdf"
	"repro/internal/simnet"
)

// pathSystem is two peers over one entity space: "up" holds two core0 edges
// per entity, "down" two core1 edges, and a rename mapping carries core0
// into core1 — so an h-hop core1 path rewrites into at least 2^h disjuncts
// whose atoms the rewriting emits in no particular order. Each predicate's
// extension holds 2n rows; a path from one entity touches at most 4^k
// entities at hop k.
func pathSystem(t testing.TB, n int) (*core.System, rdf.Term) {
	t.Helper()
	sys := core.NewSystem()
	up, down := sys.AddPeer("up"), sys.AddPeer("down")
	core0, core1 := rdf.IRI("http://e/core0"), rdf.IRI("http://e/core1")
	ent := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://e/n%d", i%n)) }
	for i := 0; i < n; i++ {
		for _, tr := range []struct {
			p *core.Peer
			t rdf.Triple
		}{
			{up, rdf.Triple{S: ent(i), P: core0, O: ent(2*i + 1)}},
			{up, rdf.Triple{S: ent(i), P: core0, O: ent(3*i + 2)}},
			{down, rdf.Triple{S: ent(i), P: core1, O: ent(5*i + 3)}},
			{down, rdf.Triple{S: ent(i), P: core1, O: ent(7*i + 4)}},
		} {
			if err := tr.p.Add(tr.t); err != nil {
				t.Fatal(err)
			}
		}
	}
	edge := func(p rdf.Term) pattern.Query {
		return pattern.MustQuery([]string{"x", "y"},
			pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y"))})
	}
	if err := sys.AddMapping(core.GraphMappingAssertion{
		From: edge(core0), To: edge(core1), SrcPeer: "up", DstPeer: "down",
	}); err != nil {
		t.Fatal(err)
	}
	return sys, core1
}

// permutations returns every ordering of gp.
func permutations(gp pattern.GraphPattern) []pattern.GraphPattern {
	if len(gp) <= 1 {
		return []pattern.GraphPattern{append(pattern.GraphPattern(nil), gp...)}
	}
	var out []pattern.GraphPattern
	for i := range gp {
		rest := append(append(pattern.GraphPattern(nil), gp[:i]...), gp[i+1:]...)
		for _, tail := range permutations(rest) {
			out = append(out, append(pattern.GraphPattern{gp[i]}, tail...))
		}
	}
	return out
}

// The mediator follows the join graph, not the order the atoms arrive in:
// 3- and 4-hop paths anchored at a constant, with their atoms in every
// permutation, return the chase's certain answers and ship only a few rows
// — a fraction of one predicate's extension, because every step ships
// bindings: a step on zero shared variables would have nothing to ship and
// count as an extension step (joinOrder's connectedness is pinned on its
// own in TestJoinOrderConnected).
func TestJoinOrderEveryPermutation(t *testing.T) {
	const n = 500
	sys, core1 := pathSystem(t, n)
	extension := 2 * n // rows of one predicate's extension
	for _, hops := range []int{3, 4} {
		gp := pattern.GraphPattern{pattern.TP(pattern.C(rdf.IRI("http://e/n7")), pattern.C(core1), pattern.V("x1"))}
		for k := 1; k < hops; k++ {
			gp = append(gp, pattern.TP(pattern.V(fmt.Sprintf("x%d", k)), pattern.C(core1), pattern.V(fmt.Sprintf("x%d", k+1))))
		}
		free := []string{fmt.Sprintf("x%d", hops-1), fmt.Sprintf("x%d", hops)}
		want := chaseAnswers(t, sys, pattern.MustQuery(free, gp))
		if want.Len() == 0 {
			t.Fatalf("%d hops: the oracle has no answers; the test would prove nothing", hops)
		}
		for _, perm := range permutations(gp) {
			q := pattern.MustQuery(free, perm)
			eng, _ := deploy(sys, federation.Options{})
			got, m, err := eng.Answer(q)
			if err != nil {
				t.Fatalf("%d hops %v: %v", hops, perm, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%d hops %v: answers diverge from the chase:\n got %v\nwant %v", hops, perm, got.Sorted(), want.Sorted())
			}
			if m.Disjuncts < 1<<hops {
				t.Fatalf("%d hops %v: %d disjuncts, want at least %d", hops, perm, m.Disjuncts, 1<<hops)
			}
			if m.ExtensionSteps != 0 || m.BindSteps == 0 {
				t.Errorf("%d hops %v: %d extension / %d bind steps, want every step to ship bindings",
					hops, perm, m.ExtensionSteps, m.BindSteps)
			}
			if m.RowsFetched >= extension/2 {
				t.Errorf("%d hops %v: shipped %d rows, want well below one extension (%d)", hops, perm, m.RowsFetched, extension)
			}
		}
	}
}

// The bind-or-fetch rule at its threshold: a left side of exactly one probe
// wave (DefaultBindLimit distinct restrictions) ships its bindings, one
// more fetches the extension, and both agree with the chase.
func TestBindLimitThreshold(t *testing.T) {
	for _, tc := range []struct {
		left            int
		bind, extension int
	}{
		{federation.DefaultBindLimit, 1, 0},
		{federation.DefaultBindLimit + 1, 0, 1},
	} {
		sys, q := batchTradeoffSystem(t, tc.left)
		eng, _ := deploy(sys, federation.Options{})
		got, m, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := chaseAnswers(t, sys, q); !got.Equal(want) || got.Len() != tc.left {
			t.Errorf("left %d: %d answers, chase %d", tc.left, got.Len(), want.Len())
		}
		if m.BindSteps != tc.bind || m.ExtensionSteps != tc.extension {
			t.Errorf("left %d: bind=%d extension=%d steps, want %d/%d",
				tc.left, m.BindSteps, m.ExtensionSteps, tc.bind, tc.extension)
		}
		// the extension holds the left side's names plus 200 others
		wantRows := tc.left + tc.left
		if tc.extension > 0 {
			wantRows = tc.left + tc.left + 200
		}
		if m.RowsFetched != wantRows {
			t.Errorf("left %d: shipped %d rows, want %d", tc.left, m.RowsFetched, wantRows)
		}
	}
}

// Bodies the join graph cannot help: a disconnected body is a true cross
// product, and a join variable ranging over blank nodes cannot be shipped
// as a binding. Both take the extension branch and still answer correctly.
func TestDisconnectedAndBlankJoins(t *testing.T) {
	likes, name := rdf.IRI("http://e/likes"), rdf.IRI("http://e/name")
	alice := rdf.IRI("http://e/alice")
	sys := core.NewSystem()
	facts := sys.AddPeer("facts")
	for i, tr := range []rdf.Triple{
		{S: alice, P: likes, O: rdf.Blank("b0")},
		{S: alice, P: likes, O: rdf.IRI("http://e/carol")},
		{S: rdf.Blank("b0"), P: name, O: rdf.Literal("Bob")},
		{S: rdf.IRI("http://e/carol"), P: name, O: rdf.Literal("Carol")},
		{S: rdf.IRI("http://e/dave"), P: name, O: rdf.Literal("Dave")},
	} {
		if err := facts.Add(tr); err != nil {
			t.Fatalf("triple %d: %v", i, err)
		}
	}
	for _, tc := range []struct {
		name            string
		q               pattern.Query
		answers         int
		bind, extension int
	}{
		{
			// ?x is b0 for one binding: that restriction is empty, so the
			// extension is fetched and the join happens on the returned labels
			name: "blank join variable",
			q: pattern.MustQuery([]string{"n"}, pattern.GraphPattern{
				pattern.TP(pattern.C(alice), pattern.C(likes), pattern.V("x")),
				pattern.TP(pattern.V("x"), pattern.C(name), pattern.V("n")),
			}),
			answers: 2, extension: 1,
		},
		{
			name: "cross product",
			q: pattern.MustQuery([]string{"x", "n"}, pattern.GraphPattern{
				pattern.TP(pattern.V("y"), pattern.C(name), pattern.V("n")),
				pattern.TP(pattern.C(alice), pattern.C(likes), pattern.V("x")),
			}),
			answers: 3, extension: 1, // carol × {Bob, Carol, Dave}; b0 is no certain answer
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := deploy(sys, federation.Options{})
			got, m, err := eng.Answer(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if want := chaseAnswers(t, sys, tc.q); !got.Equal(want) || got.Len() != tc.answers {
				t.Errorf("answers diverge from the chase:\n got %v\nwant %v", got.Sorted(), want.Sorted())
			}
			if m.BindSteps != tc.bind || m.ExtensionSteps != tc.extension {
				t.Errorf("bind=%d extension=%d steps, want %d/%d", m.BindSteps, m.ExtensionSteps, tc.bind, tc.extension)
			}
		})
	}
}

// The fault-tolerance contract holds on the probe branch as on extension
// fetches: a probed source that stays down fails the query closed (cause
// chain intact), is skipped and reported under Options.Partial, and fails
// over to a replica when it has one.
func TestProbedSourceDown(t *testing.T) {
	sys, q := batchTradeoffSystem(t, 40)
	retry := federation.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}

	net := simnet.New()
	strict := deployOn(sys, net, federation.Options{Retry: retry})
	net.Fail("peer:bulk")
	if _, _, err := strict.Answer(q); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("probed source down: err = %v, want an ErrUnreachable chain", err)
	}
	partial := deployOn(sys, net, federation.Options{Retry: retry, Partial: true})
	got, m, err := partial.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || !m.Partial || len(m.SkippedSources) != 1 || m.SkippedSources[0].Source != "bulk" || m.BindSteps != 1 {
		t.Fatalf("partial: %d answers, report %+v, %d bind steps; want none, bulk skipped, 1", got.Len(), m.SkippedSources, m.BindSteps)
	}

	net = simnet.New()
	replicated := deployReplicatedOn(sys, net, 2, federation.Options{Retry: retry})
	net.Fail("peer:bulk")
	got, m, err = replicated.Answer(q)
	if err != nil || got.Len() != 40 || m.Partial || m.Failovers == 0 {
		t.Fatalf("replicated: err=%v, %d answers, partial=%v, %d failovers; want 40 complete answers through the replica",
			err, got.Len(), m.Partial, m.Failovers)
	}
}
