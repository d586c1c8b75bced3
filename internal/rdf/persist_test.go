package rdf

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// capturePersistence records every CommitRecord it is handed; optional
// hooks inject failures and blocking for the abort and lock-freedom tests.
type capturePersistence struct {
	mu      sync.Mutex
	recs    []CommitRecord
	logErr  error         // returned by LogCommit when set
	waitErr error         // returned by WaitDurable when set
	gate    chan struct{} // when set, LogCommit blocks until it closes
	entered chan struct{} // closed once a LogCommit call reaches the gate
	once    sync.Once
	waits   []uint64
}

func (c *capturePersistence) LogCommit(rec CommitRecord) (uint64, error) {
	if c.gate != nil {
		if c.entered != nil {
			c.once.Do(func() { close(c.entered) })
		}
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.logErr != nil {
		return 0, c.logErr
	}
	// deep-copy Ops: the graph may reuse scratch behind the slice
	cp := CommitRecord{Epoch: rec.Epoch, Ops: append([]Op(nil), rec.Ops...)}
	c.recs = append(c.recs, cp)
	return uint64(len(c.recs)), nil
}

func (c *capturePersistence) WaitDurable(token uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waits = append(c.waits, token)
	return c.waitErr
}

func (c *capturePersistence) records() []CommitRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CommitRecord(nil), c.recs...)
}

// TestPersistenceSeesEffectiveOps pins the CommitRecord contract: only
// effective writes are logged, in application order, with the epoch after
// the commit, across single writes, batches, and no-op writes.
func TestPersistenceSeesEffectiveOps(t *testing.T) {
	g := NewGraphSharded(4)
	cap := &capturePersistence{}
	g.SetPersistence(cap)

	t1 := Triple{S: IRI("http://e/s1"), P: IRI("http://e/p"), O: IRI("http://e/o1")}
	t2 := Triple{S: IRI("http://e/s2"), P: IRI("http://e/p"), O: IRI("http://e/o2")}
	t3 := Triple{S: IRI("http://e/s3"), P: IRI("http://e/q"), O: Literal("x")}

	g.Add(t1)    // rec 1: epoch 1, [add t1]
	g.Add(t1)    // duplicate: no record
	g.Remove(t3) // absent: no record
	b := g.NewBatch()
	b.Add(t2)
	b.Add(t1) // duplicate inside batch: not effective
	b.Add(t3)
	b.Remove(t1)
	if n := b.Commit(); n != 3 {
		t.Fatalf("batch commit = %d effective, want 3", n)
	}
	g.Remove(t3) // rec 3: epoch 5, [del t3]

	recs := cap.records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	if recs[0].Epoch != 1 || len(recs[0].Ops) != 1 || recs[0].Ops[0].Del || recs[0].Ops[0].T != t1 {
		t.Fatalf("rec 0 = %+v", recs[0])
	}
	wantBatch := []Op{{T: t2}, {T: t3}, {Del: true, T: t1}}
	if recs[1].Epoch != 4 || fmt.Sprint(recs[1].Ops) != fmt.Sprint(wantBatch) {
		t.Fatalf("rec 1 = %+v, want epoch 4 ops %+v", recs[1], wantBatch)
	}
	if recs[2].Epoch != 5 || !recs[2].Ops[0].Del || recs[2].Ops[0].T != t3 {
		t.Fatalf("rec 2 = %+v", recs[2])
	}
	if g.Version() != 5 {
		t.Fatalf("version = %d, want 5", g.Version())
	}
	if len(cap.waits) != 3 {
		t.Fatalf("WaitDurable called %d times, want 3", len(cap.waits))
	}
	if err := g.PersistenceError(); err != nil {
		t.Fatalf("unexpected sticky error: %v", err)
	}
}

// TestPersistenceLogErrorAbortsCommit: a LogCommit failure must leave the
// graph exactly as it was — nothing published, version unchanged, stats
// unchanged — and latch the error.
func TestPersistenceLogErrorAbortsCommit(t *testing.T) {
	for _, shards := range []int{1, 4} {
		g := NewGraphSharded(shards)
		seed := Triple{S: IRI("http://e/s0"), P: IRI("http://e/p"), O: IRI("http://e/o0")}
		g.Add(seed)
		cap := &capturePersistence{}
		g.SetPersistence(cap)

		boom := errors.New("disk on fire")
		cap.logErr = boom
		before := g.Triples()
		v0, s0 := g.Version(), g.Stats()

		t1 := Triple{S: IRI("http://e/s1"), P: IRI("http://e/p"), O: IRI("http://e/o1")}
		if g.Add(t1) {
			t.Fatal("Add reported success after refused log")
		}
		b := g.NewBatch()
		b.Add(Triple{S: IRI("http://e/s2"), P: IRI("http://e/p"), O: IRI("http://e/o2")})
		b.Remove(seed)
		if n, err := b.CommitErr(); n != 0 || !errors.Is(err, boom) {
			t.Fatalf("CommitErr = (%d, %v), want (0, %v)", n, err, boom)
		}
		if g.Remove(seed) {
			t.Fatal("Remove reported success after refused log")
		}

		if g.Version() != v0 || g.Stats() != s0 {
			t.Fatalf("graph advanced across aborted commits: version %d->%d stats %+v->%+v", v0, g.Version(), s0, g.Stats())
		}
		if got := g.Triples(); fmt.Sprint(got) != fmt.Sprint(before) {
			t.Fatalf("triples changed across aborted commits: %v -> %v", before, got)
		}
		if !errors.Is(g.PersistenceError(), boom) {
			t.Fatalf("PersistenceError = %v, want %v", g.PersistenceError(), boom)
		}

		// recovery of the hook does not clear the latch, but writes work again
		cap.logErr = nil
		if !g.Add(t1) {
			t.Fatal("Add failed after hook recovered")
		}
		if !errors.Is(g.PersistenceError(), boom) {
			t.Fatal("sticky error cleared")
		}
	}
}

// TestPersistenceWaitErrorSticky: WaitDurable failures don't undo the
// (already published) commit but must surface and latch.
func TestPersistenceWaitErrorSticky(t *testing.T) {
	g := NewGraph()
	cap := &capturePersistence{waitErr: errors.New("fsync lost")}
	g.SetPersistence(cap)
	b := g.NewBatch()
	tr := Triple{S: IRI("http://e/s"), P: IRI("http://e/p"), O: IRI("http://e/o")}
	b.Add(tr)
	n, err := b.CommitErr()
	if n != 1 || !errors.Is(err, cap.waitErr) {
		t.Fatalf("CommitErr = (%d, %v)", n, err)
	}
	if !g.Has(tr) {
		t.Fatal("published commit lost")
	}
	if !errors.Is(g.PersistenceError(), cap.waitErr) {
		t.Fatal("wait error not latched")
	}
}

// TestPersistenceEpochsStrictlyIncrease hammers concurrent writers and
// asserts the log order the WAL depends on: record epochs strictly
// increase in LogCommit call order, and each record's epoch equals the
// previous epoch plus its op count.
func TestPersistenceEpochsStrictlyIncrease(t *testing.T) {
	g := NewGraphSharded(8)
	cap := &capturePersistence{}
	g.SetPersistence(cap)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				if rng.Intn(3) == 0 {
					b := g.NewBatch()
					for j := 0; j < rng.Intn(6); j++ {
						b.Add(randTriple(rng))
					}
					b.Commit()
				} else {
					g.Add(randTriple(rng))
				}
			}
		}(w)
	}
	wg.Wait()
	recs := cap.records()
	var prev uint64
	for i, r := range recs {
		if r.Epoch <= prev {
			t.Fatalf("record %d epoch %d not above previous %d", i, r.Epoch, prev)
		}
		if r.Epoch-prev != uint64(len(r.Ops)) && i > 0 {
			t.Fatalf("record %d epoch %d jumps %d over previous with %d ops", i, r.Epoch, r.Epoch-prev, len(r.Ops))
		}
		prev = r.Epoch
	}
	if prev != g.Version() {
		t.Fatalf("last logged epoch %d != version %d", prev, g.Version())
	}
}

// TestRestoreVersion pins the recovery fast-forward: monotone, exact, and
// a no-op for stale values.
func TestRestoreVersion(t *testing.T) {
	g := NewGraph()
	g.Add(Triple{S: IRI("http://e/s"), P: IRI("http://e/p"), O: IRI("http://e/o")})
	g.RestoreVersion(100)
	if g.Version() != 100 {
		t.Fatalf("version = %d, want 100", g.Version())
	}
	g.RestoreVersion(7) // backwards: ignored
	if g.Version() != 100 {
		t.Fatalf("version moved backwards to %d", g.Version())
	}
	g.Add(Triple{S: IRI("http://e/s2"), P: IRI("http://e/p"), O: IRI("http://e/o")})
	if g.Version() != 101 {
		t.Fatalf("version after restore+add = %d, want 101", g.Version())
	}
}

// TestReadPathLockFreeWithPersistence extends the PR 4 lock-freedom pin to
// a persistence-enabled graph under the worst write-side condition: a
// writer is parked *inside* LogCommit, holding its shard locks and the
// graph's persistence mutex. The whole read surface must still complete —
// WAL append can never add a lock to the read path.
func TestReadPathLockFreeWithPersistence(t *testing.T) {
	g := NewGraphSharded(8)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		g.Add(randTriple(rng))
	}
	g.dict.promoteAll()
	gate := make(chan struct{})
	entered := make(chan struct{})
	cap := &capturePersistence{gate: gate, entered: entered}
	g.SetPersistence(cap)

	writerDone := make(chan struct{})
	go func() { // parks in LogCommit holding shard locks + persistMu
		defer close(writerDone)
		g.Add(Triple{S: IRI("http://e/blocked"), P: IRI("http://e/p"), O: IRI("http://e/o")})
	}()
	select {
	case <-entered: // the writer is parked inside LogCommit
	case <-time.After(10 * time.Second):
		t.Fatal("writer never reached LogCommit")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		p0, s0, o0 := IRI("http://e/p0"), IRI("http://e/s0"), IRI("http://e/o0")
		n := 0
		g.Match(nil, &p0, nil, func(Triple) bool { n++; return true })
		g.Match(&s0, nil, nil, func(Triple) bool { n++; return true })
		g.Match(nil, nil, &o0, func(Triple) bool { n++; return true })
		for i := 0; i < g.ShardCount(); i++ {
			g.MatchShard(i, nil, nil, &o0, func(Triple) bool { n++; return true })
		}
		_ = g.MatchCount(nil, &p0, nil)
		_ = g.Has(Triple{S: s0, P: p0, O: o0})
		_ = g.Stats()
		_, _ = g.PredStats(p0)
		snap := g.Snapshot()
		snap.Match(nil, &p0, nil, func(Triple) bool { n++; return true })
		_ = snap.Len()
		_ = snap.ShardEpochs(nil)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("read path blocked while a writer was parked in LogCommit")
	}
	close(gate)
	<-writerDone
}

// TestSnapshotReadZeroAllocsWithPersistence extends the 0-alloc
// snapshot-read pin to a persistence-enabled graph: attaching a WAL hook
// must not add a single allocation to the read path.
func TestSnapshotReadZeroAllocsWithPersistence(t *testing.T) {
	g := NewGraphSharded(4)
	cap := &capturePersistence{}
	g.SetPersistence(cap)
	p := IRI("http://e/p")
	b := g.NewBatch()
	for i := 0; i < 512; i++ {
		b.Add(Triple{S: IRI(fmt.Sprintf("http://e/s%d", i%64)), P: p, O: IRI(fmt.Sprintf("http://e/o%d", i))})
	}
	b.Commit()
	g.dict.promoteAll()
	snap := g.Snapshot()
	s0 := IRI("http://e/s0")
	allocs := testing.AllocsPerRun(100, func() {
		n := 0
		snap.Match(&s0, &p, nil, func(Triple) bool { n++; return true })
		_ = snap.MatchCount(&s0, &p, nil)
		_ = snap.Stats()
	})
	if allocs != 0 {
		t.Fatalf("snapshot read allocates %.1f allocs/op with persistence attached, want 0", allocs)
	}
}
