package federation_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
)

// The streaming wire protocol is an encoding change, not a semantics
// change: on random peer systems, the streaming engine, the one-shot
// engine (over a client without QueryStream) and the single-store chase
// oracle must agree exactly.
func TestStreamedMatchesOneShotProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys, q := randomFederationCase(t, rng)
		want := chaseAnswers(t, sys, q)
		for _, oneShot := range []bool{false, true} {
			eng := deployWireOn(sys, simnet.New(), federation.Options{
				Rewrite: rewrite.Options{MaxQueries: 500000},
			}, oneShot)
			got, _, err := eng.Answer(q)
			if err != nil {
				t.Logf("seed %d oneShot=%v: %v", seed, oneShot, err)
				return false
			}
			if !got.Equal(want) {
				t.Logf("seed %d oneShot=%v:\n got %v\nwant %v",
					seed, oneShot, got.Sorted(), want.Sorted())
				return false
			}
		}
		return true
	}
	n := 40
	if testing.Short() {
		n = 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// Cancellation at random chunk boundaries: open the federated plan over a
// result set spanning several peer.StreamChunk chunks, drain a random
// number of rows, close the iterator mid-stream. Every drained row must be
// a certain answer (truncation never corrupts), and the abandoned remote
// streams must wind down without leaking pump goroutines.
func TestStreamCancellationProperty(t *testing.T) {
	sys, q := renameFanSystem(t, 3, 300) // 900 rows ≈ 3 chunks per peer
	want := chaseAnswers(t, sys, q)
	eng := deployOn(sys, simnet.New(), federation.Options{})
	before := runtime.NumGoroutine()

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stop := rng.Intn(int(want.Len())) // anywhere from row 0 to the last
		pq, err := eng.Plan(q)
		if err != nil {
			t.Log(err)
			return false
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		it := pq.Root.Open(ctx, nil)
		got := 0
		for got < stop {
			mu, ok := it.Next()
			if !ok {
				break
			}
			tu := make(pattern.Tuple, 0, len(mu))
			for _, v := range q.Free {
				tu = append(tu, mu[v])
			}
			if !want.Has(tu) {
				t.Logf("seed %d: truncated drain produced a non-answer %v", seed, tu)
				return false
			}
			got++
		}
		cancel()
		it.Close()
		if err := pq.Err(); err != nil {
			t.Logf("seed %d: cancellation surfaced as a plan error: %v", seed, err)
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

	for i := 0; i < 100; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
}

// Early termination must reach the peers: an ASK-shaped probe (first row
// wins) and a LIMIT-shaped truncated drain over streamed scans leave the
// bulk of the extension unproduced at the peer, where the one-shot wire
// always pays for every row. Pinned on the peers' produced-rows counters.
func TestStreamEarlyStopProducesFewerRows(t *testing.T) {
	const facts = 2000 // many chunks, so early stop leaves most unpulled
	sys := core.NewSystem()
	p0 := sys.AddPeer("peer0")
	pred := rdf.IRI("http://e/P0")
	for j := 0; j < facts; j++ {
		if err := p0.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", j)),
			P: pred,
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", j)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(pred), pattern.V("y")),
	})

	produced := func(oneShot bool, drain int) int64 {
		net := simnet.New()
		reg := peer.NewRegistry()
		nodes := peer.Deploy(sys, net, reg)
		net.Register("mediator", func(string, simnet.Message) (simnet.Message, error) {
			return simnet.Message{}, nil
		})
		var client federation.Client = peer.NewClient(net, "mediator")
		if oneShot {
			client = oneShotClient{peer.NewClient(net, "mediator")}
		}
		eng := federation.New(sys, reg, client, federation.Options{})
		pq, err := eng.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		it := pq.Root.Open(context.Background(), nil)
		for i := 0; i < drain; i++ {
			if _, ok := it.Next(); !ok {
				t.Fatalf("ran dry after %d rows", i)
			}
		}
		it.Close()
		var total int64
		for _, n := range nodes {
			total += n.RowsProduced()
		}
		return total
	}

	// LIMIT 1-shaped consumption: one row then close
	streamed := produced(false, 1)
	oneShot := produced(true, 1)
	if oneShot != facts {
		t.Fatalf("one-shot wire produced %d rows, want all %d", oneShot, facts)
	}
	if streamed > 2*peer.StreamChunk {
		t.Fatalf("streamed early stop still produced %d rows, want ≤ %d (a chunk or two)",
			streamed, 2*peer.StreamChunk)
	}
	if oneShot < 5*streamed {
		t.Fatalf("early stop saved too little: one-shot=%d streamed=%d", oneShot, streamed)
	}
}
