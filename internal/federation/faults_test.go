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
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/rewrite"
	"repro/internal/simnet"
)

// deployReplicatedOn deploys every peer as a replica set of the given size
// on a caller-provided network and returns the engine.
func deployReplicatedOn(sys *core.System, net *simnet.Network, replicas int, opts federation.Options) *federation.Engine {
	reg := peer.NewRegistry()
	peer.DeployReplicated(sys, net, reg, replicas)
	net.Register("mediator", func(string, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	return federation.New(sys, reg, peer.NewClient(net, "mediator"), opts)
}

// chaseAnswers is the single-store oracle: the certain answers over the
// chased union of all peer data.
func chaseAnswers(t *testing.T, sys *core.System, q pattern.Query) *pattern.TupleSet {
	t.Helper()
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return u.CertainAnswers(q)
}

// With 3 replicas per source and one endpoint (including primaries) killed
// mid-stream, every federated query must still return the complete, correct
// answer set with zero failed queries: the retry loop fails the dead
// endpoint over to a live replica within the same logical call.
func TestReplicaFailoverMidStream(t *testing.T) {
	sys, q := renameFanSystem(t, 4, 10)
	want := chaseAnswers(t, sys, q)
	net := simnet.New()
	eng := deployReplicatedOn(sys, net, 3, federation.Options{})
	// primaries die after serving a couple of calls — mid-stream, so
	// early sub-queries succeed and later ones must fail over
	for i := 0; i < 4; i++ {
		net.FailAfter(fmt.Sprintf("peer:peer%d", i), i%3)
	}
	for run := 0; run < 5; run++ {
		got, m, err := eng.Answer(q)
		if err != nil {
			t.Fatalf("run %d: query failed despite live replicas: %v", run, err)
		}
		if !got.Equal(want) {
			t.Fatalf("run %d: answers diverge:\n got %v\nwant %v",
				run, got.Sorted(), want.Sorted())
		}
		if m.Partial {
			t.Fatalf("run %d: complete answer tagged partial: %+v", run, m.SkippedSources)
		}
	}
}

// The failover property against the chase oracle: on random peer systems
// with 3 replicas per source and one random endpoint per source killed
// mid-stream at a random point, federated answers equal the single-store
// chase answers and no query fails.
func TestReplicaFailoverMatchesChase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys, q := randomFederationCase(t, rng)
		want := chaseAnswers(t, sys, q)
		net := simnet.New()
		reg := peer.NewRegistry()
		peer.DeployReplicated(sys, net, reg, 3)
		net.Register("mediator", func(string, simnet.Message) (simnet.Message, error) {
			return simnet.Message{}, nil
		})
		for _, p := range sys.Peers() {
			eps := []string{
				"peer:" + p.Name(),
				"peer:" + p.Name() + "@r1",
				"peer:" + p.Name() + "@r2",
			}
			net.FailAfter(eps[rng.Intn(len(eps))], rng.Intn(4))
		}
		eng := federation.New(sys, reg, peer.NewClient(net, "mediator"), federation.Options{
			Rewrite: rewrite.Options{MaxQueries: 500000},
		})
		got, _, err := eng.Answer(q)
		if err != nil {
			t.Logf("seed %d query failed: %v", seed, err)
			return false
		}
		if !got.Equal(want) {
			t.Logf("seed %d:\n got %v\nwant %v", seed, got.Sorted(), want.Sorted())
			return false
		}
		return true
	}
	n := 25
	if testing.Short() {
		n = 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// A whole source down: without Options.Partial the query fails closed (the
// %w chain still classifies, with the attempt count recorded); with it, the
// answer is the correct subset and the completeness report names the
// skipped source.
func TestPartialAnswers(t *testing.T) {
	sys, q := renameFanSystem(t, 4, 5)
	want := chaseAnswers(t, sys, q)

	net := simnet.New()
	engStrict := deployOn(sys, net, federation.Options{
		Retry: federation.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
	})
	net.Fail("peer:peer2")
	if _, _, err := engStrict.Answer(q); err == nil {
		t.Fatalf("whole source down without Partial: want an error")
	} else {
		if !errors.Is(err, simnet.ErrUnreachable) {
			t.Errorf("err = %v, want an ErrUnreachable chain", err)
		}
		if !strings.Contains(err.Error(), "2 attempts") {
			t.Errorf("err = %v, want the attempt count recorded", err)
		}
	}

	engPartial := deployOn(sys, net, federation.Options{
		Partial: true,
		Retry:   federation.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
	})
	got, m, err := engPartial.Answer(q)
	if err != nil {
		t.Fatalf("partial query failed: %v", err)
	}
	if !m.Partial || len(m.SkippedSources) != 1 || m.SkippedSources[0].Source != "peer2" {
		t.Fatalf("completeness report = partial=%v skipped=%+v, want peer2 skipped",
			m.Partial, m.SkippedSources)
	}
	if got.Len() != 15 {
		t.Fatalf("partial answers = %d, want the 15 from the 3 live peers", got.Len())
	}
	for _, tu := range got.Sorted() {
		if !want.Has(tu) {
			t.Fatalf("partial answer %v is not a certain answer", tu)
		}
	}
	summary := m.PartialSummary()
	if len(summary) != 1 || !strings.Contains(summary[0], "-- partial: peer peer2 unavailable") {
		t.Fatalf("PartialSummary = %q", summary)
	}
}

// Partial answers must not poison the shared answer cache: after the
// skipped source heals, the same query must return the complete answer set,
// not a cached degraded subset.
func TestPartialAnswersNotCached(t *testing.T) {
	sys, q := renameFanSystem(t, 4, 5)
	want := chaseAnswers(t, sys, q)
	net := simnet.New()
	eng := deployOn(sys, net, federation.Options{
		Partial:     true,
		Retry:       federation.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
		AnswerCache: qcache.New(1 << 20),
	})
	net.Fail("peer:peer2")
	got, m, err := eng.Answer(q)
	if err != nil || !m.Partial {
		t.Fatalf("degraded run: err=%v partial=%v", err, m.Partial)
	}
	if got.Len() != 15 {
		t.Fatalf("degraded run: %d answers, want 15", got.Len())
	}
	net.Heal("peer:peer2")
	got, m, err = eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partial {
		t.Fatalf("healed run still tagged partial: %+v", m.SkippedSources)
	}
	if !got.Equal(want) {
		t.Fatalf("healed run served a stale degraded subset: got %d answers, want %d",
			got.Len(), want.Len())
	}
}

// The deterministic error rule under retries: with two sources down, the
// lowest failing disjunct's post-retry error wins, identically across
// parallel runs.
func TestRetryErrorDeterministic(t *testing.T) {
	sys, q := renameFanSystem(t, 6, 3)
	net := simnet.New()
	eng := deployOn(sys, net, federation.Options{
		Retry: federation.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
	})
	net.Fail("peer:peer1")
	net.Fail("peer:peer4")
	_, _, err := eng.Answer(q)
	if err == nil {
		t.Fatal("want an error with two sources down")
	}
	first := err.Error()
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want an ErrUnreachable chain", err)
	}
	for run := 0; run < 5; run++ {
		_, _, err := eng.Answer(q)
		if err == nil || err.Error() != first {
			t.Fatalf("run %d: error drifted:\n got %v\nwant %s", run, err, first)
		}
	}
	// the plan's streamed leaves record errors as they arrive; the rule
	// still keeps the lowest disjunct's
	for run := 0; run < 5; run++ {
		pq, err := eng.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		plan.Drain(pq.Root.Open(context.Background(), nil))
		if err := pq.Err(); err == nil || err.Error() != first {
			t.Fatalf("plan run %d: error drifted:\n got %v\nwant %s", run, err, first)
		}
	}
}

// Hedged requests: slow primaries, fast replicas — the hedge fires after
// the configured delay, the replica answers first, and the answers are
// unchanged.
func TestHedgedRequests(t *testing.T) {
	sys, q := renameFanSystem(t, 3, 5)
	want := chaseAnswers(t, sys, q)
	net := simnet.New(simnet.WithRealDelay())
	eng := deployReplicatedOn(sys, net, 2, federation.Options{
		Hedge:      true,
		HedgeAfter: 2 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		net.SetNodeLatency(fmt.Sprintf("peer:peer%d", i), 40*time.Millisecond, 0)
	}
	got, m, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("hedged answers diverge:\n got %v\nwant %v", got.Sorted(), want.Sorted())
	}
	if m.Hedges == 0 || m.HedgeWins == 0 {
		t.Fatalf("metrics = hedges=%d wins=%d, want the fast replicas to win hedges", m.Hedges, m.HedgeWins)
	}
}

// Draining the hedged plan: its streamed leaves pump rows from the primary
// and, once the hedge fires, from a replica; the loser's pump may still be
// sending when the winner's call returns, and the leaf's channel must stay
// open until it stops.
func TestHedgedStreamedPlan(t *testing.T) {
	sys, q := renameFanSystem(t, 3, 5)
	want := chaseAnswers(t, sys, q)
	net := simnet.New(simnet.WithRealDelay())
	eng := deployReplicatedOn(sys, net, 2, federation.Options{
		Hedge:      true,
		HedgeAfter: 2 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		net.SetNodeLatency(fmt.Sprintf("peer:peer%d", i), 40*time.Millisecond, 0)
	}
	pq, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := plan.Drain(pq.Root.Open(context.Background(), nil))
	if err := pq.Err(); err != nil {
		t.Fatal(err)
	}
	got := pattern.NewTupleSet()
	for _, mu := range rows {
		got.Add(pattern.Tuple{mu["x"], mu["y"]})
	}
	if !got.Equal(want) {
		t.Fatalf("hedged plan answers diverge:\n got %v\nwant %v", got.Sorted(), want.Sorted())
	}
	if m := pq.Metrics(); m.Hedges == 0 {
		t.Fatalf("metrics = %+v, want hedges launched", m)
	}
}

// The circuit breaker: consecutive failures open it (subsequent calls fail
// fast without touching the network), and after the cooldown a half-open
// probe against the healed peer closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	sys, q := renameFanSystem(t, 1, 3)
	net := simnet.New()
	eng := deployOn(sys, net, federation.Options{
		Retry:            federation.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
	})
	net.Fail("peer:peer0")
	if _, _, err := eng.Answer(q); err == nil {
		t.Fatal("want an error while the peer is down")
	}
	failsBefore := net.Stats().Failures
	_, m, err := eng.Answer(q)
	if err == nil {
		t.Fatal("want a fast-fail while the circuit is open")
	}
	if !errors.Is(err, federation.ErrCircuitOpen) || !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrCircuitOpen wrapping the unreachable cause", err)
	}
	if m.BreakerFastFails == 0 {
		t.Fatalf("metrics = %+v, want breaker fast-fails", m)
	}
	if got := net.Stats().Failures; got != failsBefore {
		t.Fatalf("open circuit still hit the network: %d -> %d rejected calls", failsBefore, got)
	}
	net.Heal("peer:peer0")
	time.Sleep(40 * time.Millisecond)
	got, m, err := eng.Answer(q)
	if err != nil {
		t.Fatalf("query after heal+cooldown: %v", err)
	}
	if got.Len() != 3 {
		t.Fatalf("answers after recovery = %d, want 3", got.Len())
	}
}

// The tentpole scenario: a rotating minority of peers cycles through
// slow / dead / flaky / healed across queries, replicas cover every
// outage, and every query returns the complete correct answer set. The
// final round kills a whole replica set and asserts the correctly-tagged
// partial subset. Goroutine-leak checked; run under -race -cpu 1,4 by the
// CI chaos job.
func TestRotatingFailures(t *testing.T) {
	sys, q := renameFanSystem(t, 6, 5)
	want := chaseAnswers(t, sys, q)
	before := runtime.NumGoroutine()

	net := simnet.New(simnet.WithJitterSeed(7))
	eng := deployReplicatedOn(sys, net, 3, federation.Options{
		Partial:          true,
		Retry:            federation.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Millisecond,
	})
	endpoint := func(peerIdx, replica int) string {
		if replica == 0 {
			return fmt.Sprintf("peer:peer%d", peerIdx)
		}
		return fmt.Sprintf("peer:peer%d@r%d", peerIdx, replica)
	}
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		// rotate the failing minority: one dead primary, one transient
		// outage that heals itself mid-query, one flaky replica
		dead := round % 6
		transient := (round + 2) % 6
		flaky := (round + 4) % 6
		net.Fail(endpoint(dead, round%3))
		net.HealAfter(endpoint(transient, (round+1)%3), 2)
		net.SetFlaky(endpoint(flaky, (round+2)%3), 0.5)

		got, m, err := eng.Answer(q)
		if err != nil {
			t.Fatalf("round %d: query failed despite replica coverage: %v", round, err)
		}
		if !got.Equal(want) {
			t.Fatalf("round %d: answers diverge (partial=%v skipped=%+v):\n got %v\nwant %v",
				round, m.Partial, m.SkippedSources, got.Sorted(), want.Sorted())
		}
		if m.Partial {
			t.Fatalf("round %d: complete answer tagged partial: %+v", round, m.SkippedSources)
		}
		for i := 0; i < 6; i++ {
			for r := 0; r < 3; r++ {
				net.Heal(endpoint(i, r))
			}
		}
	}

	// no replica covers a fully-dead source: the answer degrades to the
	// correctly-tagged subset
	for r := 0; r < 3; r++ {
		net.Fail(endpoint(3, r))
	}
	got, m, err := eng.Answer(q)
	if err != nil {
		t.Fatalf("degraded round: %v", err)
	}
	if !m.Partial || len(m.SkippedSources) != 1 || m.SkippedSources[0].Source != "peer3" {
		t.Fatalf("degraded round: report = partial=%v skipped=%+v, want peer3", m.Partial, m.SkippedSources)
	}
	if got.Len() != 25 {
		t.Fatalf("degraded round: %d answers, want 25 (30 minus peer3's 5)", got.Len())
	}
	for _, tu := range got.Sorted() {
		if !want.Has(tu) {
			t.Fatalf("degraded round: %v is not a certain answer", tu)
		}
	}

	for i := 0; i < 100; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
}

// The fault-tolerance metric families must be present in the process
// exposition (registered at package init, so they scrape even at zero) and
// move when faults occur.
func TestFaultMetricFamiliesExposed(t *testing.T) {
	text := obs.Default.Expose()
	for _, family := range []string{
		"federation_retry_attempts_total",
		"federation_retry_exhausted_total",
		"federation_retry_failovers_total",
		"federation_hedge_launched_total",
		"federation_hedge_wins_total",
		"federation_breaker_opens_total",
		"federation_breaker_halfopen_probes_total",
		"federation_breaker_fastfail_total",
		"federation_partial_answers_total",
		"federation_skipped_sources_total",
		`rps_fed_join_steps_total{strategy="bind"}`,
		`rps_fed_join_steps_total{strategy="extension"}`,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("family %s missing from exposition", family)
		}
	}
}
