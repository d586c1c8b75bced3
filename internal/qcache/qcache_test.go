package qcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSingleflightCollapse pins the headline property: N identical
// concurrent lookups cost one execution, and the other N-1 share the
// leader's value — as collapsed flights when they arrive while it is in
// flight, as plain hits when the scheduler starts them only after it
// completed (release closes as soon as the leader is inside compute, not
// when everyone has piled on).
func TestSingleflightCollapse(t *testing.T) {
	c := New(1 << 20)
	l := c.Layer("test")

	const waiters = 16
	var computes atomic.Int64
	release := make(chan struct{})
	start := make(chan struct{})
	results := make([]any, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := l.Do("q1", []uint64{7}, func() (any, int64, error) {
				computes.Add(1)
				<-release // hold the flight open so everyone else piles on
				return "answer", 8, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	// Wait until one leader is inside compute, then release it. Spin on the
	// miss counter: exactly one caller becomes the leader; collapsed callers
	// never reach compute.
	for computes.Load() == 0 {
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != "answer" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
	s := c.Stats()
	if s.Collapsed+s.Hits != waiters-1 {
		t.Fatalf("collapsed + hits = %d, want %d (stats: %+v)", s.Collapsed+s.Hits, waiters-1, s)
	}
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (stats: %+v)", s.Misses, s)
	}

	// A subsequent same-epoch lookup is a plain hit with no compute.
	v, cached, err := l.Do("q1", []uint64{7}, func() (any, int64, error) {
		t.Fatal("hit path ran compute")
		return nil, 0, nil
	})
	if err != nil || !cached || v != "answer" {
		t.Fatalf("hit: v=%v cached=%v err=%v", v, cached, err)
	}
}

// TestStaleEpochRevalidation pins exact invalidation: a lookup whose epoch
// vector differs from the resident entry's drops it and recomputes, and
// the recomputed answer replaces the stale one.
func TestStaleEpochRevalidation(t *testing.T) {
	c := New(1 << 20)
	l := c.Layer("test")

	compute := func(val string) func() (any, int64, error) {
		return func() (any, int64, error) { return val, 8, nil }
	}
	if v, _, _ := l.Do("q", []uint64{1, 1}, compute("old")); v != "old" {
		t.Fatalf("first compute = %v", v)
	}
	// Same epochs: hit, old answer.
	if v, cached, _ := l.Do("q", []uint64{1, 1}, compute("wrong")); !cached || v != "old" {
		t.Fatalf("revalidated hit = %v (cached=%v)", v, cached)
	}
	// Second source moved: the stale entry must be dropped and recomputed.
	v, cached, _ := l.Do("q", []uint64{1, 2}, compute("new"))
	if cached || v != "new" {
		t.Fatalf("post-write lookup = %v (cached=%v), want fresh %q", v, cached, "new")
	}
	if s := c.Stats(); s.StaleDrops != 1 {
		t.Fatalf("stale drops = %d, want 1", s.StaleDrops)
	}
	// The fresh answer is now resident under the new vector; the old vector
	// must not resurrect the old answer.
	if v, cached, _ := l.Do("q", []uint64{1, 2}, compute("wrong")); !cached || v != "new" {
		t.Fatalf("new-epoch hit = %v (cached=%v)", v, cached)
	}
	if v, _, _ := l.Do("q", []uint64{1, 1}, compute("older-view")); v != "older-view" {
		t.Fatalf("old-epoch lookup = %v, want recompute", v)
	}
}

// TestBudgetEviction fills one shard past its budget and checks the CLOCK
// sweep brings residency back under it, evicting unreferenced entries
// first.
func TestBudgetEviction(t *testing.T) {
	c := New(16 * 1024) // 1 KiB per shard, 256 B admission cap
	l := c.Layer("test")

	// 20 entries of 100 bytes against a 1024-byte shard: the sweeps must
	// evict. Keys are salted to land on one shard so the arithmetic is
	// deterministic against a fixed shard count.
	var keys []string
	for i := 0; keys == nil || len(keys) < 20; i++ {
		k := fmt.Sprintf("k%d", i)
		if shardOf("test\x00"+k) == shardOf("test\x00k0") {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		l.Do(k, []uint64{1}, func() (any, int64, error) { return k, 100, nil })
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", s)
	}
	if s.Bytes > 16*1024/numShards {
		t.Fatalf("shard over budget after sweep: %d bytes resident", s.Bytes)
	}
	if s.Entries == 0 {
		t.Fatal("sweep evicted everything; expected residency near budget")
	}
}

// TestAdmissionControl pins the oversized-result rule: the flight still
// collapses concurrent duplicates, but the result is not retained.
func TestAdmissionControl(t *testing.T) {
	c := New(16 * 1024) // admission cap 256 B
	l := c.Layer("test")

	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	big := func() (any, int64, error) {
		computes.Add(1)
		close(started)
		<-release
		return "huge", 100 << 10, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, _, _ := l.Do("big", []uint64{1}, big); v != "huge" {
			t.Errorf("leader got %v", v)
		}
	}()
	<-started
	// Concurrent duplicate: collapses onto the in-flight leader even though
	// the result will be rejected.
	done := make(chan any)
	go func() {
		v, cached, _ := l.Do("big", []uint64{1}, func() (any, int64, error) {
			t.Error("duplicate ran its own compute")
			return nil, 0, nil
		})
		if !cached {
			t.Error("duplicate did not collapse")
		}
		done <- v
	}()
	// Give the duplicate a chance to park on the flight, then finish it.
	for c.Stats().Collapsed == 0 {
	}
	close(release)
	wg.Wait()
	if v := <-done; v != "huge" {
		t.Fatalf("collapsed duplicate got %v", v)
	}

	s := c.Stats()
	if s.Rejections != 1 {
		t.Fatalf("rejections = %d, want 1 (%+v)", s.Rejections, s)
	}
	if s.Entries != 0 {
		t.Fatalf("oversized result stayed resident: %+v", s)
	}
	// Next lookup recomputes: nothing was cached.
	if _, cached, _ := l.Do("big", []uint64{1}, func() (any, int64, error) { return "again", 100 << 10, nil }); cached {
		t.Fatal("rejected result was served from cache")
	}
	if computes.Load() != 1 {
		t.Fatalf("leader computes = %d, want 1", computes.Load())
	}
}

// TestErrorsNotCached: a failed compute releases waiters with the error
// but leaves nothing resident.
func TestErrorsNotCached(t *testing.T) {
	c := New(1 << 20)
	l := c.Layer("test")
	boom := errors.New("boom")
	if _, _, err := l.Do("e", []uint64{1}, func() (any, int64, error) { return nil, 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	ran := false
	if _, _, err := l.Do("e", []uint64{1}, func() (any, int64, error) { ran = true; return "ok", 2, nil }); err != nil {
		t.Fatalf("retry err = %v", err)
	}
	if !ran {
		t.Fatal("error was cached; retry did not recompute")
	}
}

// TestInFlightEpochMismatch: a lookup with a different epoch vector than
// the in-flight leader computes privately and caches nothing.
func TestInFlightEpochMismatch(t *testing.T) {
	c := New(1 << 20)
	l := c.Layer("test")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.Do("q", []uint64{1}, func() (any, int64, error) {
			close(started)
			<-release
			return "old-epoch", 8, nil
		})
	}()
	<-started
	v, cached, err := l.Do("q", []uint64{2}, func() (any, int64, error) { return "new-epoch", 8, nil })
	if err != nil || cached || v != "new-epoch" {
		t.Fatalf("mismatched-epoch lookup: v=%v cached=%v err=%v", v, cached, err)
	}
	close(release)
	wg.Wait()
	// The leader's answer is resident under epoch 1 only.
	if v, cached, _ := l.Do("q", []uint64{1}, func() (any, int64, error) { return "x", 8, nil }); !cached || v != "old-epoch" {
		t.Fatalf("leader's entry: v=%v cached=%v", v, cached)
	}
}

// TestNilLayerBypasses: a nil layer is the disabled cache.
func TestNilLayerBypasses(t *testing.T) {
	var l *Layer
	v, cached, err := l.Do("k", nil, func() (any, int64, error) { return 42, 8, nil })
	if err != nil || cached || v != 42 {
		t.Fatalf("nil layer: v=%v cached=%v err=%v", v, cached, err)
	}
	if l.Peek("k", nil) {
		t.Fatal("nil layer peeked true")
	}
}
