package federation_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/simnet"
)

// Chaos tests for the chunked streaming wire protocol: every chunk pull is
// its own simnet call, so FailAfter kills streams *mid-flight* — after the
// open succeeded and rows were already consumed. Run under -race -cpu 1,4
// by the CI chaos job (the -run pattern matches "Stream").

// A peer dying between chunk pulls must surface as a retryable error on
// the consumer's Next — the signal the federation retry loop keys on — and
// a fresh stream after heal must replay every row exactly once.
func TestStreamDiesMidFlightRetryable(t *testing.T) {
	sys := core.NewSystem()
	p := sys.AddPeer("peer0")
	for j := 0; j < 300; j++ { // > 2 chunks of peer.StreamChunk=128
		if err := p.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", j)),
			P: rdf.IRI("http://e/P0"),
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", j)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	net := simnet.New()
	peer.Deploy(sys, net, peer.NewRegistry())
	net.Register("tester", func(string, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	c := peer.NewClient(net, "tester")
	q := "SELECT ?x ?y WHERE { ?x <http://e/P0> ?y . }"

	rs, err := c.QueryStream(context.Background(), "peer:peer0", q)
	if err != nil {
		t.Fatal(err)
	}
	// drain the first chunk (folded into the open reply), then kill the
	// peer before the next pull
	for i := 0; i < peer.StreamChunk; i++ {
		if _, ok, err := rs.Next(); err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	net.Fail("peer:peer0")
	_, _, err = rs.Next()
	if err == nil {
		t.Fatal("Next after mid-stream death: want an error")
	}
	if !peer.Retryable(err) {
		t.Fatalf("mid-stream death classified terminal: %v", err)
	}
	rs.Close()

	// after heal, a fresh stream replays the full extension exactly once
	net.Heal("peer:peer0")
	rs, err = c.QueryStream(context.Background(), "peer:peer0", q)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	n := 0
	for {
		row, ok, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
		seen[row[0].String()+"|"+row[1].String()]++
	}
	rs.Close()
	if n != 300 || len(seen) != 300 {
		t.Fatalf("restarted stream: %d rows, %d distinct, want 300/300", n, len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("row %s replayed %d times", k, c)
		}
	}
}

// Primaries killed mid-stream with replicas covering: the pump's retry
// loop fails the dead stream over, the restarted stream replays rows, and
// the consumer's dedup keeps the answers exact — across both join
// strategies, with no goroutine leaked by abandoned pumps.
func TestStreamFailoverMidFlight(t *testing.T) {
	sys, q := renameFanSystem(t, 3, 300)
	want := chaseAnswers(t, sys, q)

	// streams killed mid-flight park their scan at the server until the
	// idle reaper fires (the client's close can never reach a dead node);
	// lower the timeout so the leak check observes the reaping
	saved := peer.StreamIdleTimeout
	peer.StreamIdleTimeout = 50 * time.Millisecond
	defer func() { peer.StreamIdleTimeout = saved }()

	before := runtime.NumGoroutine()

	net := simnet.New()
	eng := deployReplicatedOn(sys, net, 3, federation.Options{
		Retry: federation.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond},
	})
	// each stream costs ≥3 calls (open + 2 pulls for 300 rows): dying
	// after 2 means the open and first pull succeed, the next pull fails
	for i := 0; i < 3; i++ {
		net.FailAfter(fmt.Sprintf("peer:peer%d", i), 2)
	}
	for run := 0; run < 3; run++ {
		got, m, err := eng.Answer(q)
		if err != nil {
			t.Fatalf("run %d: query failed despite live replicas: %v", run, err)
		}
		if !got.Equal(want) {
			t.Fatalf("run %d: answers diverge: got %d rows, want %d",
				run, got.Len(), want.Len())
		}
		if m.Partial {
			t.Fatalf("run %d: complete answer tagged partial: %+v", run, m.SkippedSources)
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

// A whole source dead mid-stream with no replica cover: under
// Options.Partial the source is skipped after retries and the partial
// subset is exact — no duplicate or phantom rows from the aborted stream's
// already-delivered chunks (abandoned rows are confined to the dead
// disjunct, which contributes nothing).
func TestStreamPartialAfterMidFlightDeath(t *testing.T) {
	sys, q := renameFanSystem(t, 4, 200)
	want := chaseAnswers(t, sys, q)
	net := simnet.New()
	eng := deployOn(sys, net, federation.Options{
		Partial: true,
		Retry:   federation.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
	})
	net.FailAfter("peer:peer2", 1) // stream open succeeds, first pull dies
	got, m, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Partial || len(m.SkippedSources) != 1 || m.SkippedSources[0].Source != "peer2" {
		t.Fatalf("report = partial=%v skipped=%+v, want peer2 skipped", m.Partial, m.SkippedSources)
	}
	if got.Len() != 600 {
		t.Fatalf("partial answers = %d, want the 600 from the 3 live peers", got.Len())
	}
	for _, tu := range got.Sorted() {
		if !want.Has(tu) {
			t.Fatalf("partial answer %v is not a certain answer", tu)
		}
	}
}
