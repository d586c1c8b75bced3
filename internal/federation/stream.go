package federation

import (
	"context"

	"repro/internal/pattern"
	"repro/internal/plan"
)

// streamPattern opens the extension of one triple pattern as a live
// iterator: every candidate source's attempt (fetcher.read) sends its
// bindings into a shared channel as they arrive, so downstream joins start
// on the first chunk instead of the last. The plan executor consumes it
// through plan.RemoteScan.FetchStream.
//
// Each per-source read runs under the fetcher's full retry loop — a stream
// that dies mid-flight restarts from scratch on the next attempt (or fails
// over to a replica), and since restarts replay rows, the consumer
// deduplicates on the pattern's variables (the extension is a set anyway,
// so cross-source and hedge duplicates collapse in the same pass). Closing
// the iterator cancels the internal context: in-flight streams observe it
// on their next pull or send and close, telling the peers to stop
// producing — this is how a mediator-side LIMIT or cancellation reaches
// into the remote scans.
//
// The engine-wide epoch-keyed answer cache is consulted up front and
// published to after a complete, non-degraded drain; the per-query
// singleflight cache is NOT — two concurrent plan executions of the same
// pattern open independent streams (coalescing a live stream would force
// the faster consumer to buffer for the slower one).
//
// Errors follow the plan's out-of-band convention: terminal failures land
// in f.recordErr against the leaf's disjunct (the iterator just ends
// early), transient post-retry failures under Options.Partial skip the
// source.
func (f *fetcher) streamPattern(ctx context.Context, tp pattern.TriplePattern, disjunct int) plan.Iterator {
	replay := func(rows []pattern.Binding) plan.Iterator {
		return (&plan.Bindings{Rows: rows}).Open(ctx, nil)
	}
	if impossible(tp) {
		return replay(nil)
	}
	queryText, vars, err := renderPatternQuery(tp, nil)
	if err != nil {
		f.recordErr(disjunct, err)
		return replay(nil)
	}
	if l := f.eng.acache; l != nil && f.epochs != nil {
		if v, ok := l.Get(queryText, f.epochs); ok {
			f.count(&f.m.CacheHits, nil)
			return replay(v.(extension).as(vars))
		}
	}
	candidates := f.eng.reg.SelectSources(patternIRIs(tp))
	ictx, cancel := context.WithCancel(ctx)
	// ch is never closed: a hedged attempt's loser may still be sending
	// after its call returned the winner, so the end of the stream is done
	// instead, closed once every call has returned. Every read still
	// running then has a canceled attempt context and stops sending.
	ch, done := make(chan pattern.Binding), make(chan struct{})
	go func() {
		defer close(done)
		plan.Fanout(len(candidates), func(i int) {
			src := candidates[i]
			_, err := callRetry(f, ictx, src, func(actx context.Context, addr string) (struct{}, error) {
				return struct{}{}, f.read(actx, addr, src, queryText, vars, 0, func(mu pattern.Binding) error {
					select {
					case ch <- mu:
						return nil
					case <-actx.Done():
						return actx.Err()
					}
				})
			})
			if err != nil && ictx.Err() == nil {
				if f.partial && retryable(err) {
					f.skipSource(src, err)
					return
				}
				f.recordErr(disjunct, err)
			}
		})
	}()
	it := &streamIter{ch: ch, done: done, cancel: cancel, vars: vars, seen: make(map[string]bool)}
	it.publish = func(rows []pattern.Binding) {
		// publish only a complete, non-degraded drain
		if l := f.eng.acache; l != nil && f.epochs != nil && f.Err() == nil && !f.anySkipped() {
			l.Put(queryText, f.epochs, extension{vars, rows}, bindingsBytes(rows))
		}
	}
	return it
}

// streamIter adapts the reads' shared channel to a plan.Iterator,
// deduplicating rows on the pattern's variables (set semantics — also what
// makes retry replays and hedge duplicates invisible).
type streamIter struct {
	ch      <-chan pattern.Binding
	done    <-chan struct{}
	cancel  context.CancelFunc
	vars    []string
	seen    map[string]bool
	rows    []pattern.Binding
	publish func(rows []pattern.Binding)
	closed  bool
	ended   bool
}

func (it *streamIter) Next() (pattern.Binding, bool) {
	for !it.ended {
		select {
		case mu := <-it.ch:
			k := pattern.BindingKey(mu, it.vars)
			if it.seen[k] {
				continue
			}
			it.seen[k] = true
			it.rows = append(it.rows, mu)
			return mu, true
		case <-it.done:
			it.ended = true
			if it.publish != nil && !it.closed {
				it.publish(it.rows)
			}
		}
	}
	return nil, false
}

// Close cancels the reads; each stops at its next send or pull.
func (it *streamIter) Close() {
	if !it.ended {
		it.closed = true // abandoned early: never publish a partial drain
	}
	it.cancel()
}
