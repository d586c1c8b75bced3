package federation

import (
	"context"

	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
)

// streamPattern opens the extension of one triple pattern as a live
// iterator: every candidate source's result stream pumps decoded bindings
// into a shared channel as chunks arrive, so downstream joins start on the
// first chunk instead of the last. The plan executor consumes it through
// plan.RemoteScan.FetchStream.
//
// Each per-source pump runs under the fetcher's full retry loop — a stream
// that dies mid-flight restarts from scratch on the next attempt (or fails
// over to a replica), and since restarts replay rows, the consumer
// deduplicates on the pattern's variables (the extension is a set anyway,
// so cross-source and hedge duplicates collapse in the same pass). Closing
// the iterator cancels the internal context: in-flight streams observe it
// on their next pull and close, telling the peers to stop producing — this
// is how a mediator-side LIMIT or cancellation reaches into the remote
// scans.
//
// The engine-wide epoch-keyed answer cache is consulted up front and
// published to after a complete, non-degraded drain; the per-query
// singleflight cache is NOT — two concurrent plan executions of the same
// pattern open independent streams (coalescing a live stream would force
// the faster consumer to buffer for the slower one).
//
// Errors follow the plan path's out-of-band convention: terminal failures
// land in f.recordErr (the iterator just ends early), transient post-retry
// failures under Options.Partial skip the source.
func (f *fetcher) streamPattern(ctx context.Context, tp pattern.TriplePattern) plan.Iterator {
	replay := func(rows []pattern.Binding) plan.Iterator {
		return (&plan.Bindings{Rows: rows}).Open(ctx, nil)
	}
	if impossible(tp) {
		return replay(nil)
	}
	queryText, vars, err := renderPatternQuery(tp, nil)
	if err != nil {
		f.recordErr(err)
		return replay(nil)
	}
	if l := f.eng.acache; l != nil && f.epochs != nil {
		if v, ok := l.Get(queryText, f.epochs); ok {
			f.mu.Lock()
			f.cacheHits++
			f.mu.Unlock()
			return replay(v.(extension).as(vars))
		}
	}
	candidates := f.eng.reg.SelectSources(patternIRIs(tp))
	ictx, cancel := context.WithCancel(ctx)
	ch := make(chan pattern.Binding)
	go func() {
		defer close(ch)
		plan.Fanout(len(candidates), func(i int) {
			src := candidates[i]
			_, err := callRetry(f, ictx, src, func(actx context.Context, addr string) (struct{}, error) {
				return struct{}{}, f.pumpStream(actx, addr, src, queryText, vars, ch, ictx.Done())
			})
			if err != nil && ictx.Err() == nil {
				if f.partial && retryable(err) {
					f.skipSource(src, err)
					return
				}
				f.recordErr(err)
			}
		})
	}()
	it := &streamIter{ch: ch, cancel: cancel, vars: vars, seen: make(map[string]bool)}
	it.publish = func(rows []pattern.Binding) {
		// publish only a complete, non-degraded drain
		if l := f.eng.acache; l != nil && f.epochs != nil && f.Err() == nil && !f.anySkipped() {
			l.Put(queryText, f.epochs, extension{vars, rows}, bindingsBytes(rows))
		}
	}
	return it
}

// pumpStream opens one stream against addr and pushes its decoded bindings
// to out, stopping when the stream ends, errors, or stop closes. It is the
// body of one retry attempt: the stream is opened AND fully consumed inside
// it, so the retry/hedge machinery treats the whole pump as the unit of
// failure (a mid-stream death retries from scratch; a hedged loser's
// context cancellation kills its pump on the next pull).
func (f *fetcher) pumpStream(actx context.Context, addr string, src peer.Entry, queryText string, vars []string, out chan<- pattern.Binding, stop <-chan struct{}) error {
	if err := actx.Err(); err != nil {
		return err
	}
	release := f.acquire(addr)
	defer release()
	rs, err := f.eng.stream.QueryStream(actx, addr, queryText)
	if err != nil {
		return err
	}
	defer rs.Close()
	send := func(mu pattern.Binding) bool {
		select {
		case out <- mu:
			return true
		case <-stop:
			return false
		}
	}
	if rs.Ask() {
		// ground pattern: drain the verdict, ship the empty binding on true
		for {
			_, ok, err := rs.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
		if rs.True() {
			f.addRows(1)
			send(pattern.Binding{})
		}
	} else {
		for {
			row, ok, err := rs.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			f.addRows(1)
			mu := make(pattern.Binding, len(vars))
			complete := true
			for i, v := range vars {
				if row[i].IsZero() {
					complete = false
					break
				}
				mu[v] = row[i]
			}
			if !complete {
				continue // unbound variables: dropped, as resultBindings does
			}
			if !send(mu) {
				return nil // consumer closed: stop pumping, not an error
			}
		}
	}
	f.mu.Lock()
	f.calls++ // one logical sub-query, however many chunk pulls it took
	f.sources[src.Name] = true
	f.mu.Unlock()
	return nil
}

// streamIter adapts the pumps' shared channel to a plan.Iterator,
// deduplicating rows on the pattern's variables (set semantics — also what
// makes retry replays and hedge duplicates invisible).
type streamIter struct {
	ch      <-chan pattern.Binding
	cancel  context.CancelFunc
	vars    []string
	seen    map[string]bool
	rows    []pattern.Binding
	publish func(rows []pattern.Binding)
	closed  bool
	done    bool
}

func (it *streamIter) Next() (pattern.Binding, bool) {
	for {
		mu, ok := <-it.ch
		if !ok {
			if !it.done {
				it.done = true
				if it.publish != nil && !it.closed {
					it.publish(it.rows)
				}
			}
			return nil, false
		}
		k := pattern.BindingKey(mu, it.vars)
		if it.seen[k] {
			continue
		}
		it.seen[k] = true
		it.rows = append(it.rows, mu)
		return mu, true
	}
}

func (it *streamIter) Close() {
	if !it.done {
		it.closed = true // abandoned early: never publish a partial drain
	}
	it.cancel()
	// drain the channel so the pumps observe the cancellation and exit
	// rather than blocking forever on a full channel
	go func() {
		for range it.ch {
		}
	}()
}
