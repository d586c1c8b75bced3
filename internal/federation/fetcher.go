package federation

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/rewrite"
)

// fetcher is the mediator's concurrency-safe fetch layer for one query
// execution. It owns the shared result cache (singleflight: concurrent
// identical sub-queries coalesce onto one network fetch), the per-peer
// in-flight windows, and the execution metrics. All methods are safe for
// concurrent use by the parallel disjunct executor.
type fetcher struct {
	eng        *Engine
	window     int
	batch      int
	policy     RetryPolicy
	hedge      bool
	hedgeAfter time.Duration
	partial    bool
	// epochs is the peer-version vector captured at fetcher creation; when
	// the engine has a shared answer cache, every fetch result is stamped
	// with it (and served from the cache only at the identical vector).
	epochs []uint64

	mu       sync.Mutex
	m        Metrics // the counters; snapshot fills in the rest
	cache    map[string]*fetchEntry
	slots    map[string]chan struct{}
	sources  map[string]bool
	skipped  map[string]string // sources exhausted under Options.Partial → error summary
	inFlight int
	err      error
	errAt    int // the disjunct err was recorded against
}

// fetchEntry is one cache slot. The creator (leader) computes rows/err and
// closes done; every later arrival waits on done and shares the result.
type fetchEntry struct {
	done chan struct{}
	extension
	err error
}

// extension is a fetched sub-query result as the fetch caches hold it: rows
// over the variable names of the pattern that led the fetch, listed in the
// sub-query's canonical column order (renderPatternQuery). Alpha-equivalent
// patterns render to one query text and so share the entry; each reads the
// rows under its own names through as.
type extension struct {
	vars []string
	rows []pattern.Binding
}

// as returns the rows over vars, which name the same columns as x.vars in
// the same order. Rows come back shared when the names agree — the usual
// case, a disjunct reusing the query's own variables — and relabelled
// copies otherwise.
func (x extension) as(vars []string) []pattern.Binding {
	if slices.Equal(x.vars, vars) {
		return x.rows
	}
	out := make([]pattern.Binding, len(x.rows))
	for i, mu := range x.rows {
		r := make(pattern.Binding, len(vars))
		for j, v := range x.vars {
			r[vars[j]] = mu[v]
		}
		out[i] = r
	}
	return out
}

func newFetcher(e *Engine) *fetcher {
	return &fetcher{
		eng:        e,
		window:     e.opts.window(),
		batch:      e.opts.batchSize(),
		policy:     e.opts.Retry,
		hedge:      e.opts.Hedge,
		hedgeAfter: e.opts.HedgeAfter,
		partial:    e.opts.Partial,
		cache:      make(map[string]*fetchEntry),
		slots:      make(map[string]chan struct{}),
		sources:    make(map[string]bool),
		skipped:    make(map[string]string),
		epochs:     e.epochVector(),
	}
}

// snapshot freezes the counters into a Metrics report.
func (f *fetcher) snapshot(res *rewrite.Result) *Metrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.m
	m.Disjuncts, m.RewriteTruncated = res.Size(), res.Truncated
	m.SourcesContacted = len(f.sources)
	m.Partial = len(f.skipped) > 0
	for name, msg := range f.skipped {
		m.SkippedSources = append(m.SkippedSources, SkippedSource{Source: name, Err: msg})
	}
	sort.Slice(m.SkippedSources, func(i, j int) bool {
		return m.SkippedSources[i].Source < m.SkippedSources[j].Source
	})
	return &m
}

// count adds one event to field, a counter of f.m, and to c when set: the
// fault-tolerance events feed their process-wide obs family at event time
// rather than through publishMetrics, because they are interesting even
// when the query is later canceled.
func (f *fetcher) count(field *int, c *obs.Counter) {
	f.mu.Lock()
	*field++
	f.mu.Unlock()
	if c != nil {
		c.Inc()
	}
}

// skipSource records a source exhausted under Options.Partial: it
// contributes zero rows and the answer is tagged partial. Only the first
// error per source is kept.
func (f *fetcher) skipSource(src peer.Entry, err error) {
	f.mu.Lock()
	if _, ok := f.skipped[src.Name]; !ok {
		f.skipped[src.Name] = err.Error()
	}
	f.mu.Unlock()
}

// anySkipped reports whether this execution has skipped any source so far.
// The shared answer cache consults it conservatively: nothing fetched
// during a degraded execution is published (a skip elsewhere in the query
// cannot have leaked into an unrelated extension, but proving that per key
// is not worth the risk of caching an incomplete merge).
func (f *fetcher) anySkipped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.skipped) > 0
}

// skippedNames returns the skipped source names, sorted (the RemoteScan
// partial annotation).
func (f *fetcher) skippedNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.skipped) == 0 {
		return nil
	}
	out := make([]string, 0, len(f.skipped))
	for name := range f.skipped {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// recordErr records the error of a leaf of disjunct i out of band
// (RemoteScan iterators have no error channel). The lowest disjunct's
// error is kept, whichever arrives first, so parallel executions report
// the same error; within one disjunct the first recorded one stays.
func (f *fetcher) recordErr(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.errAt {
		f.err, f.errAt = err, i
	}
	f.mu.Unlock()
}

// Err returns the error recordErr kept.
func (f *fetcher) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// acquire takes an in-flight slot for addr (blocking while the peer's
// window is full) and returns the release function. It also maintains the
// mediator-wide in-flight peak.
func (f *fetcher) acquire(addr string) func() {
	f.mu.Lock()
	ch, ok := f.slots[addr]
	if !ok {
		ch = make(chan struct{}, f.window)
		f.slots[addr] = ch
	}
	f.mu.Unlock()
	ch <- struct{}{}
	f.mu.Lock()
	f.inFlight++
	f.m.InFlightMax = max(f.m.InFlightMax, f.inFlight)
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		f.inFlight--
		f.mu.Unlock()
		<-ch
	}
}

// cached returns the rows for key over vars, computing them at most once
// across all concurrent callers: the first caller runs compute (which
// returns rows over vars), everyone else waits and shares (and counts a
// cache hit, whether the entry was done or still in flight). Failures do
// not stick: a failed flight is removed from the cache before its waiters
// are released, so callers arriving after the failure lead a fresh attempt
// instead of inheriting a stale error — already-parked waiters still share
// the failure (they collapsed onto that flight while it was the live one).
func (f *fetcher) cached(key string, vars []string, compute func() ([]pattern.Binding, error)) ([]pattern.Binding, error) {
	f.mu.Lock()
	if ent, ok := f.cache[key]; ok {
		f.m.CacheHits++
		f.mu.Unlock()
		<-ent.done
		return ent.as(vars), ent.err
	}
	ent := &fetchEntry{done: make(chan struct{}), extension: extension{vars: vars}}
	f.cache[key] = ent
	f.mu.Unlock()
	ent.rows, ent.err = f.sharedCached(key, vars, compute)
	if ent.err != nil {
		f.mu.Lock()
		if f.cache[key] == ent {
			delete(f.cache, key)
		}
		f.mu.Unlock()
	}
	close(ent.done)
	return ent.rows, ent.err
}

// sharedCached consults the engine-wide epoch-keyed answer cache around a
// fetch, so identical sub-queries recur for free across query executions
// until some peer's epoch moves. Without a shared cache (or without an
// epoch vector) it degrades to the plain compute.
func (f *fetcher) sharedCached(key string, vars []string, compute func() ([]pattern.Binding, error)) ([]pattern.Binding, error) {
	l := f.eng.acache
	if l == nil || f.epochs == nil {
		return compute()
	}
	if f.partial {
		// degraded executions must not publish: a merge that silently
		// skipped a source is not the extension later executions may
		// reuse. Consume complete cached entries, compute privately, and
		// publish only when this execution has skipped nothing.
		if v, ok := l.Get(key, f.epochs); ok {
			f.count(&f.m.CacheHits, nil)
			return v.(extension).as(vars), nil
		}
		rows, err := compute()
		if err == nil && !f.anySkipped() {
			l.Put(key, f.epochs, extension{vars, rows}, bindingsBytes(rows))
		}
		return rows, err
	}
	v, shared, err := l.Do(key, f.epochs, func() (any, int64, error) {
		rows, err := compute()
		if err != nil {
			return nil, 0, err
		}
		return extension{vars, rows}, bindingsBytes(rows), nil
	})
	if err != nil {
		if shared {
			// collapsed onto another execution's flight that failed under its
			// own context or peer set; retry privately under ours
			return compute()
		}
		return nil, err
	}
	if shared {
		f.count(&f.m.CacheHits, nil)
	}
	return v.(extension).as(vars), nil
}

// bindingsBytes estimates the resident cost of a fetched extension: one
// map header plus a term-sized slot per bound variable per row.
func bindingsBytes(rows []pattern.Binding) int64 {
	n := int64(96)
	for _, mu := range rows {
		n += int64(len(mu))*64 + 48
	}
	return n
}

// query sends one query text to one source and returns its rows as
// bindings over vars. bindings is the probe batch size the query carries
// (0: not a probe). The call runs under the fetcher's retry policy
// (callRetry): transient failures are retried with backoff across the
// source's replica set, hedged when Options.Hedge. Each attempt reads into
// rows of its own, so a hedged race returns only the winner's.
func (f *fetcher) query(ctx context.Context, src peer.Entry, queryText string, vars []string, bindings int) ([]pattern.Binding, error) {
	return callRetry(f, ctx, src, func(actx context.Context, addr string) ([]pattern.Binding, error) {
		var rows []pattern.Binding
		err := f.read(actx, addr, src, queryText, vars, bindings, func(mu pattern.Binding) error {
			rows = append(rows, mu)
			return nil
		})
		return rows, err
	})
}

// read is the body of one attempt of a sub-query: it takes an in-flight
// slot of addr, opens the query's result stream there under the attempt's
// context, and hands emit each row as a binding over vars, stopping at
// emit's first error. An ASK that holds is the empty binding (the identity
// of the compatibility join); rows with unbound variables are dropped.
//
// The stream is opened and read to its end inside the attempt, so the
// retry loop treats it as one unit of failure: an ASK stops the peer's
// scan at the first row, a stream that dies mid-flight is a transient
// error the retry loop restarts from scratch, and an attempt whose context
// ends — a hedged loser, a closed plan leaf — abandons its stream. A
// completed read counts ONE RemoteCalls message however many chunk pulls
// it took: RemoteCalls counts logical sub-queries, and the per-chunk round
// trips show up in the network's own call statistics. It is counted inside
// the attempt, because a hedged loser that completed at the peer cost a
// real message too.
func (f *fetcher) read(ctx context.Context, addr string, src peer.Entry, queryText string, vars []string, bindings int, emit func(pattern.Binding) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer f.acquire(addr)()
	rs, err := f.eng.open(ctx, addr, queryText)
	if err != nil {
		return err
	}
	defer rs.Close()
	n := 0
rows:
	for {
		row, ok, err := rs.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
		mu := make(pattern.Binding, len(vars))
		for i, v := range vars {
			if row[i].IsZero() {
				continue rows
			}
			mu[v] = row[i]
		}
		if err := emit(mu); err != nil {
			return err
		}
	}
	if rs.Ask() && rs.True() {
		n++
		if err := emit(pattern.Binding{}); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.m.RowsFetched += n
	f.m.RemoteCalls++
	if bindings > 1 {
		f.m.Batches++
	}
	f.sources[src.Name] = true
	f.mu.Unlock()
	return nil
}

// mergeBindings concatenates per-source (or per-chunk) binding lists in
// order, deduplicating on the projected variables (set semantics, as the
// extension of a pattern is a set).
func mergeBindings(lists [][]pattern.Binding, vars []string) []pattern.Binding {
	seen := make(map[string]bool)
	var out []pattern.Binding
	for _, rows := range lists {
		for _, mu := range rows {
			k := pattern.BindingKey(mu, vars)
			if !seen[k] {
				seen[k] = true
				out = append(out, mu)
			}
		}
	}
	return out
}

// impossible reports a pattern that violates the RDF typing discipline — a
// literal subject or a non-IRI predicate — and can never match: no need to
// ask anyone (the rewriting produces such instantiations when a join
// variable ranges over literals).
func impossible(tp pattern.TriplePattern) bool {
	return (!tp.S.IsVar() && tp.S.Term().IsLiteral()) || (!tp.P.IsVar() && !tp.P.Term().IsIRI())
}

// fetchPattern retrieves the extension of one triple pattern from every
// candidate source (concurrently) and merges the bindings.
func (f *fetcher) fetchPattern(ctx context.Context, tp pattern.TriplePattern) ([]pattern.Binding, error) {
	if impossible(tp) {
		return nil, nil
	}
	queryText, vars, err := renderPatternQuery(tp, nil)
	if err != nil {
		return nil, err
	}
	return f.cached(queryText, vars, func() ([]pattern.Binding, error) {
		return f.fetchMerged(ctx, f.eng.reg.SelectSources(patternIRIs(tp)), queryText, vars, 0)
	})
}

// fetchMerged sends one query text to every candidate source concurrently
// and merges the per-source bindings in source order. bindings is the
// probe batch size the query carries (0 for plain extension fetches).
// Under Options.Partial, a source whose post-retry error is transient is
// skipped — it contributes zero rows and is recorded in the completeness
// report — instead of failing the fetch; terminal errors (and errors under
// an already-dead context) still propagate.
func (f *fetcher) fetchMerged(ctx context.Context, candidates []peer.Entry, queryText string, vars []string, bindings int) ([]pattern.Binding, error) {
	perSrc := make([][]pattern.Binding, len(candidates))
	errs := make([]error, len(candidates))
	plan.Fanout(len(candidates), func(i int) {
		rows, err := f.query(ctx, candidates[i], queryText, vars, bindings)
		if err != nil && f.partial && ctx.Err() == nil && retryable(err) {
			f.skipSource(candidates[i], err)
			return
		}
		perSrc[i], errs[i] = rows, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeBindings(perSrc, vars), nil
}

// joinStep is the mediator's one rule for what crosses the network at a
// join step (see the package comment): the side of acc ⋈ tp that lives at
// the peers arrives as the answers to acc's restrictions shipped as probes
// (shipped = true) or as tp's whole extension. Every plan.RemoteJoin step
// of disjunctPlan comes through here.
func (f *fetcher) joinStep(ctx context.Context, tp pattern.TriplePattern, acc []pattern.Binding) (ext []pattern.Binding, shipped bool, err error) {
	restrictions, shipped := restrictionsOf(acc, tp.Vars(), f.eng.opts.bindLimit())
	if !shipped {
		f.count(&f.m.ExtensionSteps, nil)
		ext, err = f.fetchPattern(ctx, tp)
		return ext, false, err
	}
	f.count(&f.m.BindSteps, nil)
	ext, err = f.probe(ctx, tp, restrictions)
	return ext, true, err
}

// probe retrieves the fragment of tp's extension compatible with the given
// restrictions of tp's variables: they ship f.batch at a time per probe
// query, the batch queries run concurrently (each source's traffic bounded
// by its in-flight window), and the per-batch rows merge in batch order.
// Restrictions are partitioned by bound-variable domain before chunking, so
// every chunk is uniform and renders as a native VALUES block (one pattern
// scan at the peer).
func (f *fetcher) probe(ctx context.Context, tp pattern.TriplePattern, restrictions []pattern.Binding) ([]pattern.Binding, error) {
	var chunks [][]pattern.Binding
	for _, part := range partitionByDomain(restrictions) {
		for start := 0; start < len(part); start += f.batch {
			end := min(start+f.batch, len(part))
			chunks = append(chunks, part[start:end])
		}
	}
	perChunk := make([][]pattern.Binding, len(chunks))
	errs := make([]error, len(chunks))
	plan.Fanout(len(chunks), func(i int) {
		perChunk[i], errs[i] = f.probeChunk(ctx, tp, chunks[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeBindings(perChunk, tp.Vars()), nil
}

// partitionByDomain groups restrictions by their bound-variable set
// (names only — pattern.DomainKey would key on the values too),
// preserving first-seen order of both the groups and their members.
func partitionByDomain(restrictions []pattern.Binding) [][]pattern.Binding {
	index := make(map[string]int)
	var out [][]pattern.Binding
	for _, r := range restrictions {
		names := restrictionDomain(r)
		k := strings.Join(names, "\x00")
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], r)
	}
	return out
}

// probeChunk sends one batch of restrictions as a single probe query,
// through the shared cache (identical probes recur across disjuncts).
func (f *fetcher) probeChunk(ctx context.Context, tp pattern.TriplePattern, restrictions []pattern.Binding) ([]pattern.Binding, error) {
	queryText, vars, err := renderPatternQuery(tp, restrictions)
	if err != nil {
		return nil, err
	}
	return f.cached(queryText, vars, func() ([]pattern.Binding, error) {
		return f.fetchMerged(ctx, f.probeSources(tp, restrictions), queryText, vars, len(restrictions))
	})
}

// probeSources routes a probe batch like the per-binding protocol routed
// each probe: the candidates are the union, over the batch's restrictions,
// of the sources selected for the pattern instantiated with that
// restriction — so a selective binding whose IRIs live in one peer's
// schema keeps pruning the others even when it travels in a batch.
func (f *fetcher) probeSources(tp pattern.TriplePattern, restrictions []pattern.Binding) []peer.Entry {
	seen := make(map[string]bool)
	var out []peer.Entry
	for _, r := range restrictions {
		for _, src := range f.eng.reg.SelectSources(patternIRIs(tp.Apply(r))) {
			if !seen[src.Name] {
				seen[src.Name] = true
				out = append(out, src)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
