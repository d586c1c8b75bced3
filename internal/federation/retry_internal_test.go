package federation

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pattern"
)

// The singleflight fetch cache must not let failures stick: waiters parked
// while the failing flight was live share its error (they collapsed onto
// it), but a caller arriving after the failure leads a fresh attempt.
func TestSingleflightFreshAttemptAfterFailure(t *testing.T) {
	e := New(nil, nil, nil, Options{})
	f := newFetcher(e)
	boom := errors.New("boom")

	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := f.cached("k", []string{"x"}, func() ([]pattern.Binding, error) {
			close(started)
			<-release
			return nil, boom
		})
		leaderErr <- err
	}()
	<-started

	// a waiter that collapses onto the live flight shares the failure
	waiterErr := make(chan error, 1)
	go func() {
		_, err := f.cached("k", []string{"x"}, func() ([]pattern.Binding, error) {
			t.Error("parked waiter must not recompute")
			return nil, nil
		})
		waiterErr <- err
	}()
	for {
		f.mu.Lock()
		parked := f.m.CacheHits == 1
		f.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v", err)
	}
	if err := <-waiterErr; !errors.Is(err, boom) {
		t.Fatalf("parked waiter err = %v, want the shared failure", err)
	}

	// a caller arriving after the failure leads a fresh attempt
	rows, err := f.cached("k", []string{"x"}, func() ([]pattern.Binding, error) {
		return []pattern.Binding{{"x": {}}}, nil
	})
	if err != nil {
		t.Fatalf("post-failure call inherited stale error: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("post-failure call rows = %v, want the fresh result", rows)
	}
}

// The breaker state machine: threshold consecutive transient failures open
// the circuit, the cooldown admits exactly one half-open probe, a failed
// probe re-opens, a successful one closes.
func TestBreakerStateMachine(t *testing.T) {
	h := newHealthRegistry(2, 20*time.Millisecond)
	g := PeerGroup{Name: "p", Endpoints: []string{"a"}}
	boom := errors.New("down")

	if _, ok := h.pick(g, nil); !ok {
		t.Fatal("closed circuit must admit")
	}
	h.failure("a", boom)
	if _, ok := h.pick(g, nil); !ok {
		t.Fatal("one failure is below threshold")
	}
	h.failure("a", boom)
	if _, ok := h.pick(g, nil); ok {
		t.Fatal("open circuit admitted before cooldown")
	}
	if err := h.downError(g); !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, boom) {
		t.Fatalf("downError = %v, want ErrCircuitOpen wrapping the last failure", err)
	}

	time.Sleep(25 * time.Millisecond)
	if _, ok := h.pick(g, nil); !ok {
		t.Fatal("cooldown elapsed: half-open probe must be admitted")
	}
	if _, ok := h.pick(g, nil); ok {
		t.Fatal("second concurrent probe admitted through half-open circuit")
	}
	h.failure("a", boom) // the probe failed: re-open immediately
	if _, ok := h.pick(g, nil); ok {
		t.Fatal("failed probe must re-open the circuit")
	}

	time.Sleep(25 * time.Millisecond)
	if _, ok := h.pick(g, nil); !ok {
		t.Fatal("second probe window")
	}
	h.success("a", time.Millisecond)
	if _, ok := h.pick(g, nil); !ok {
		t.Fatal("successful probe must close the circuit")
	}
}

// pick prefers untried endpoints and only falls back to tried ones when
// nothing fresh is admitted; with every circuit open it reports !ok.
func TestPickFailoverOrder(t *testing.T) {
	h := newHealthRegistry(1, time.Hour)
	g := PeerGroup{Name: "p", Endpoints: []string{"a", "b", "c"}}
	if ep, _ := h.pick(g, nil); ep != "a" {
		t.Fatalf("first pick = %q, want the primary", ep)
	}
	if ep, _ := h.pick(g, map[string]bool{"a": true}); ep != "b" {
		t.Fatalf("pick after a failed = %q, want b", ep)
	}
	h.failure("b", errors.New("down")) // threshold 1: opens immediately
	if ep, _ := h.pick(g, map[string]bool{"a": true}); ep != "c" {
		t.Fatalf("pick around open circuit = %q, want c", ep)
	}
	// everything tried: fall back to the full set (a and c still closed)
	if ep, ok := h.pick(g, map[string]bool{"a": true, "b": true, "c": true}); !ok || ep != "a" {
		t.Fatalf("full-cycle fallback = %q ok=%v, want a", ep, ok)
	}
	h.failure("a", errors.New("down"))
	h.failure("c", errors.New("down"))
	if _, ok := h.pick(g, nil); ok {
		t.Fatal("all circuits open: pick must report !ok")
	}
}
