package plan

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/qcache"
	"repro/internal/rdf"
)

// The answer cache (internal/qcache) memoises *results*, not join orders:
// ExecuteQuery/ExecuteQueryStar/Ask consult a shared qcache.Layer keyed on
// the full query text — constants included, unlike the shape-keyed plan
// cache above it — plus the graph identity, validated against the
// snapshot's per-shard epoch vector. Cached TupleSets are shared by
// reference: every caller in this codebase treats ExecuteQuery results as
// read-only (Sorted, Merge, Minus, Equal all allocate their outputs), so a
// hit costs a map lookup and an epoch compare.
//
// Caching only engages for *rdf.Snapshot sources (the vector is what makes
// invalidation exact; see Snapshot.ShardEpochs) and only on
// non-cancellable contexts: a canceled plan truncates silently, and a
// truncated answer must never become resident.

// answerLayer is the process-wide answer-cache layer for local plan-level
// query answers; nil (the default) disables caching.
var answerLayer atomic.Pointer[qcache.Layer]

// SetAnswerCache installs (or, with nil, removes) the answer-cache layer
// consulted by ExecuteQuery, ExecuteQueryStar and Ask.
func SetAnswerCache(l *qcache.Layer) { answerLayer.Store(l) }

// negAskCache is the process-wide negative-ASK cache: Ask consults it
// before anything else (a resident key under the exact epoch vector means
// "provably no solution") and stores every freshly computed false verdict.
// nil (the default) disables it.
var negAskCache atomic.Pointer[qcache.NegCache]

// SetNegativeAskCache installs (or, with nil, removes) the negative-answer
// cache consulted by Ask.
func SetNegativeAskCache(c *qcache.NegCache) { negAskCache.Store(c) }

// answerKey renders the exact query — graph identity, projection, star
// flag, and every pattern with its constants — as the cache key. Epochs are
// deliberately not part of the key: the qcache validates the stored epoch
// vector at lookup, so a moved epoch reuses the slot instead of leaking an
// entry per write.
func answerKey(g rdf.Source, q pattern.Query, star bool) string {
	var b strings.Builder
	b.Grow(32 + len(q.GP)*24)
	writeUint(&b, g.ID())
	if star {
		b.WriteString("/*")
	}
	b.WriteByte('/')
	for _, v := range q.Free {
		b.WriteByte('?')
		b.WriteString(v)
		b.WriteByte(' ')
	}
	writePatternKey(&b, q.GP)
	return b.String()
}

// askKey is answerKey for the boolean Ask form (no projection).
func askKey(g rdf.Source, gp pattern.GraphPattern) string {
	var b strings.Builder
	b.Grow(16 + len(gp)*24)
	b.WriteByte('!')
	writeUint(&b, g.ID())
	writePatternKey(&b, gp)
	return b.String()
}

func writePatternKey(b *strings.Builder, gp pattern.GraphPattern) {
	for _, tp := range gp {
		b.WriteByte('|')
		for _, e := range tp.Elems() {
			if e.IsVar() {
				b.WriteByte('?')
				b.WriteString(e.Var())
			} else {
				b.WriteString(e.Term().String())
			}
			b.WriteByte(' ')
		}
	}
}

// tupleSetBytes estimates the resident cost of a cached answer: cardinality
// × tuple width (terms are interned, so a slot is roughly a string header
// plus set overhead) plus a fixed floor for the set itself.
func tupleSetBytes(out *pattern.TupleSet, width int) int64 {
	if width < 1 {
		width = 1
	}
	return int64(out.Len())*int64(width)*48 + 96
}

// cachedExecuteQuery serves executeQuery through the answer cache when a
// layer is installed, the source is a snapshot, and the context cannot be
// canceled (ctx.Done() == nil — cancellation truncates results, which must
// never be cached). Collapsed concurrent duplicates share the leader's
// TupleSet.
func cachedExecuteQuery(g rdf.Source, q pattern.Query, star bool) (*pattern.TupleSet, bool) {
	l := answerLayer.Load()
	if l == nil {
		return nil, false
	}
	snap, ok := g.(*rdf.Snapshot)
	if !ok {
		return nil, false
	}
	v, _, _ := l.Do(answerKey(g, q, star), snap.ShardEpochs(nil), func() (any, int64, error) {
		out := runQuery(context.Background(), g, q, star)
		return out, tupleSetBytes(out, len(q.Free)), nil
	})
	return v.(*pattern.TupleSet), true
}

// writeAnswerCacheStatus appends the EXPLAIN/ANALYZE answer-cache line when
// a layer is installed and the exact (query, epoch vector) is resident.
func writeAnswerCacheStatus(b *strings.Builder, src rdf.Source, q pattern.Query) {
	l := answerLayer.Load()
	snap, ok := src.(*rdf.Snapshot)
	if l != nil && ok && l.Peek(answerKey(src, q, false), snap.ShardEpochs(nil)) {
		fmt.Fprintf(b, "-- answer cache: hit (epoch %d)\n", snap.Epoch())
	}
}
