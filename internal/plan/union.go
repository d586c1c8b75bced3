package plan

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// Fanout runs task(0) … task(n-1) across at most GOMAXPROCS goroutines and
// waits for all of them. It is the parallel primitive behind the Union
// operator, the UCQ evaluation in internal/rewrite, and SPARQL UNION.
// Tasks must not write shared state without their own synchronisation;
// writing task i's result to slot i of a preallocated slice is safe.
func Fanout(n int, task func(int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// UnionQueries evaluates a union of conjunctive queries — the shape
// internal/rewrite produces — fanning the branches out in parallel and
// merging their answer tuples into one deduplicated set. The merge is
// deterministic: TupleSet membership is order-free and branch results are
// combined in branch order. With star, tuples may contain blank nodes.
func UnionQueries(g rdf.Source, qs []pattern.Query, star bool) *pattern.TupleSet {
	ctx := context.Background()
	src := rdf.Freeze(g)
	if len(qs) == 1 {
		return executeQuery(ctx, src, qs[0], star)
	}
	sets := make([]*pattern.TupleSet, len(qs))
	Fanout(len(qs), func(i int) {
		sets[i] = executeQuery(ctx, src, qs[i], star)
	})
	out := pattern.NewTupleSet()
	for _, s := range sets {
		out.Merge(s)
	}
	return out
}
