package federation

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/sparql"
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

	mu        sync.Mutex
	cache     map[string]*fetchEntry
	slots     map[string]chan struct{}
	sources   map[string]bool
	skipped   map[string]string // sources exhausted under Options.Partial → error summary
	calls     int
	batches   int
	rows      int
	bindSteps int
	extSteps  int
	cacheHits int
	inFlight  int
	flightMax int
	retries   int
	failovers int
	hedges    int
	hedgeWins int
	fastFails int
	err       error
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
	m := &Metrics{
		Disjuncts:        res.Size(),
		RewriteTruncated: res.Truncated,
		RemoteCalls:      f.calls,
		Batches:          f.batches,
		RowsFetched:      f.rows,
		BindSteps:        f.bindSteps,
		ExtensionSteps:   f.extSteps,
		SourcesContacted: len(f.sources),
		CacheHits:        f.cacheHits,
		InFlightMax:      f.flightMax,
		Retries:          f.retries,
		Failovers:        f.failovers,
		Hedges:           f.hedges,
		HedgeWins:        f.hedgeWins,
		BreakerFastFails: f.fastFails,
		Partial:          len(f.skipped) > 0,
	}
	for name, msg := range f.skipped {
		m.SkippedSources = append(m.SkippedSources, SkippedSource{Source: name, Err: msg})
	}
	sort.Slice(m.SkippedSources, func(i, j int) bool {
		return m.SkippedSources[i].Source < m.SkippedSources[j].Source
	})
	return m
}

// Per-event counters of the fault-tolerance layer: each feeds both the
// query's Metrics snapshot and the process-wide obs family (events are
// interesting even when the query is later canceled, so they publish at
// event time rather than through publishMetrics).
func (f *fetcher) countRetry() {
	f.mu.Lock()
	f.retries++
	f.mu.Unlock()
	obsRetryAttempts.Inc()
}

func (f *fetcher) countFailover() {
	f.mu.Lock()
	f.failovers++
	f.mu.Unlock()
	obsFailovers.Inc()
}

func (f *fetcher) countHedge() {
	f.mu.Lock()
	f.hedges++
	f.mu.Unlock()
	obsHedgeLaunched.Inc()
}

func (f *fetcher) countHedgeWin() {
	f.mu.Lock()
	f.hedgeWins++
	f.mu.Unlock()
	obsHedgeWins.Inc()
}

func (f *fetcher) countFastFail() {
	f.mu.Lock()
	f.fastFails++
	f.mu.Unlock()
	obsBreakerReject.Inc()
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

// recordErr keeps the first out-of-band error (used by plan execution,
// where RemoteScan iterators have no error channel).
func (f *fetcher) recordErr(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Err returns the first out-of-band error recorded during plan execution.
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
	if f.inFlight > f.flightMax {
		f.flightMax = f.inFlight
	}
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
		f.cacheHits++
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
			f.mu.Lock()
			f.cacheHits++
			f.mu.Unlock()
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
		f.mu.Lock()
		f.cacheHits++
		f.mu.Unlock()
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

// query sends one query text to one source, accounting the message.
// bindings is the probe batch size the query carries (0: not a probe);
// multi-binding probes count as batches. The call runs under the fetcher's
// retry policy (callRetry): transient failures are retried with backoff
// across the source's replica set, hedged when Options.Hedge. Each attempt
// takes an in-flight slot of the endpoint it lands on, and the request
// inherits the attempt's context.
//
// With a streaming client the result crosses the wire as a chunked stream,
// opened and fully drained inside the attempt: an ASK stops the peer's
// scan at the first row, a stream that dies mid-flight is a transient
// error the retry loop restarts from scratch (the one-shot semantics of
// this method make the restart invisible), and a hedged loser's canceled
// context abandons its stream mid-flight. A streamed fetch still counts as
// ONE RemoteCalls message however many chunk pulls it took — RemoteCalls
// counts logical sub-queries; the per-chunk round trips show up in the
// network's own call statistics.
func (f *fetcher) query(ctx context.Context, src peer.Entry, queryText string, bindings int) (*sparql.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return callRetry(f, ctx, src, func(actx context.Context, addr string) (*sparql.Result, error) {
		if err := actx.Err(); err != nil {
			return nil, err
		}
		release := f.acquire(addr)
		var res *sparql.Result
		var err error
		if f.eng.stream != nil {
			var rs *peer.ResultStream
			if rs, err = f.eng.stream.QueryStream(actx, addr, queryText); err == nil {
				res, err = rs.Result()
			}
		} else {
			res, err = f.eng.client.QueryContext(actx, addr, queryText)
		}
		release()
		if err != nil {
			return nil, err
		}
		// accounted inside the attempt, not after callRetry: a hedged
		// loser that completed at the peer cost a real message and must
		// keep RemoteCalls aligned with the network's own call count
		f.mu.Lock()
		f.calls++
		if bindings > 1 {
			f.batches++
		}
		f.sources[src.Name] = true
		f.mu.Unlock()
		return res, nil
	})
}

// queryBatch ships several query texts to one source as a single message,
// under the same retry/failover/hedging loop as query. The caller
// guarantees the engine's client supports batching.
func (f *fetcher) queryBatch(ctx context.Context, src peer.Entry, texts []string) ([]*sparql.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return callRetry(f, ctx, src, func(actx context.Context, addr string) ([]*sparql.Result, error) {
		if err := actx.Err(); err != nil {
			return nil, err
		}
		release := f.acquire(addr)
		rs, err := f.eng.batch.QueryBatch(actx, addr, texts)
		release()
		if err != nil {
			return nil, err
		}
		f.mu.Lock()
		f.calls++
		f.batches++
		f.sources[src.Name] = true
		f.mu.Unlock()
		return rs, nil
	})
}

// resultBindings turns a peer's result into solution mappings over vars,
// accounting shipped rows. ASK results become the empty binding (the
// identity of the compatibility join) when true. Rows with unbound
// variables are dropped, as before.
func (f *fetcher) resultBindings(res *sparql.Result, vars []string) []pattern.Binding {
	if res.Form == sparql.FormAsk {
		if !res.True {
			return nil
		}
		f.addRows(1)
		return []pattern.Binding{{}}
	}
	f.addRows(len(res.Rows))
	out := make([]pattern.Binding, 0, len(res.Rows))
	for _, row := range res.Rows {
		mu := make(pattern.Binding, len(vars))
		ok := true
		for i, v := range vars {
			if row[i].IsZero() {
				ok = false
				break
			}
			mu[v] = row[i]
		}
		if ok {
			out = append(out, mu)
		}
	}
	return out
}

func (f *fetcher) addRows(n int) {
	f.mu.Lock()
	f.rows += n
	f.mu.Unlock()
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
		res, err := f.query(ctx, candidates[i], queryText, bindings)
		if err != nil {
			if f.partial && ctx.Err() == nil && retryable(err) {
				f.skipSource(candidates[i], err)
				return
			}
			errs[i] = err
			return
		}
		perSrc[i] = f.resultBindings(res, vars)
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
// (shipped = true) or as tp's whole extension. Both the answer path
// (evalDisjunct) and the plan path (disjunctPlan) come through here.
func (f *fetcher) joinStep(ctx context.Context, tp pattern.TriplePattern, acc []pattern.Binding) (ext []pattern.Binding, shipped bool, err error) {
	restrictions, shipped := restrictionsOf(acc, tp.Vars(), f.eng.opts.bindLimit())
	f.mu.Lock()
	if shipped {
		f.bindSteps++
	} else {
		f.extSteps++
	}
	f.mu.Unlock()
	if shipped {
		ext, err = f.probe(ctx, tp, restrictions)
	} else {
		ext, err = f.fetchPattern(ctx, tp)
	}
	return ext, shipped, err
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

// fetchExtensions retrieves the extensions of every pattern of a
// conjunctive body at once: patterns resolve through the shared cache, and
// the remaining sub-queries are grouped by candidate source so each source
// is asked once — one batched message carrying all of its sub-queries when
// the client supports batching, one message per sub-query otherwise.
func (f *fetcher) fetchExtensions(ctx context.Context, gp pattern.GraphPattern) ([][]pattern.Binding, error) {
	// job is one fetch this call leads; want is where pattern i's rows
	// come from: nowhere (impossible), the engine-wide cache (rows), or a
	// flight — another execution's, or a job of this call (entry).
	type job struct {
		tp     pattern.TriplePattern
		text   string
		vars   []string
		entry  *fetchEntry
		perSrc [][]pattern.Binding
		err    error
	}
	type want struct {
		text  string
		vars  []string
		hit   bool
		rows  []pattern.Binding
		entry *fetchEntry
	}
	// consult the engine-wide epoch-keyed cache first: extensions fetched
	// by earlier query executions are reused until some peer's epoch moves
	shared := f.eng.acache
	if f.epochs == nil {
		shared = nil
	}
	wants := make([]want, len(gp))
	for i, tp := range gp {
		if impossible(tp) {
			continue
		}
		text, vars, err := renderPatternQuery(tp, nil)
		if err != nil {
			return nil, err
		}
		wants[i] = want{text: text, vars: vars}
		if shared != nil {
			if v, ok := shared.Get(text, f.epochs); ok {
				wants[i].hit = true
				wants[i].rows = v.(extension).as(vars)
			}
		}
	}

	// classify the others under the cache lock: already cached or in flight
	// in this execution (possibly as another pattern of this body), or a
	// fresh fetch this call leads
	var jobs []*job
	f.mu.Lock()
	for i := range wants {
		w := &wants[i]
		if w.text == "" {
			continue
		}
		if ent, ok := f.cache[w.text]; ok || w.hit {
			f.cacheHits++
			if !w.hit {
				w.entry = ent
			}
			continue
		}
		w.entry = &fetchEntry{done: make(chan struct{}), extension: extension{vars: w.vars}}
		f.cache[w.text] = w.entry
		jobs = append(jobs, &job{tp: gp[i], text: w.text, vars: w.vars, entry: w.entry})
	}
	f.mu.Unlock()

	// group the led fetches by candidate source
	type srcCall struct {
		src   peer.Entry
		jobs  []*job
		pos   []int // jobs[k].perSrc[pos[k]] receives this source's rows
		texts []string
	}
	var calls []*srcCall
	byAddr := make(map[string]*srcCall)
	for _, j := range jobs {
		sources := f.eng.reg.SelectSources(patternIRIs(j.tp))
		j.perSrc = make([][]pattern.Binding, len(sources))
		for pos, src := range sources {
			c, ok := byAddr[src.Addr]
			if !ok {
				c = &srcCall{src: src}
				byAddr[src.Addr] = c
				calls = append(calls, c)
			}
			c.jobs, c.pos, c.texts = append(c.jobs, j), append(c.pos, pos), append(c.texts, j.text)
		}
	}

	// one round trip per source (batched when possible), concurrently
	callErrs := make([]error, len(calls))
	plan.Fanout(len(calls), func(ci int) {
		c := calls[ci]
		var rs []*sparql.Result
		var err error
		if len(c.texts) > 1 && f.eng.batch != nil {
			rs, err = f.queryBatch(ctx, c.src, c.texts)
		} else {
			rs = make([]*sparql.Result, len(c.texts))
			for k, text := range c.texts {
				if rs[k], err = f.query(ctx, c.src, text, 0); err != nil {
					break
				}
			}
		}
		if err != nil {
			if f.partial && ctx.Err() == nil && retryable(err) {
				// the whole source is exhausted: every pattern it should
				// have answered loses its contribution (slots stay empty)
				// and the answer is tagged partial
				f.skipSource(c.src, err)
				return
			}
			callErrs[ci] = err
			return
		}
		for k, j := range c.jobs {
			j.perSrc[c.pos[k]] = f.resultBindings(rs[k], j.vars)
		}
	})
	for ci, err := range callErrs {
		for _, j := range calls[ci].jobs {
			if err != nil && j.err == nil {
				j.err = err
			}
		}
	}

	// publish each job's merged extension (or error) to its cache entry,
	// and successful complete fetches to the engine-wide cache for later
	// executions (a degraded execution publishes nothing — see
	// sharedCached). Failed entries are removed before their waiters wake,
	// so later callers lead a fresh attempt instead of inheriting the
	// stale error.
	anySkipped := f.anySkipped()
	for _, j := range jobs {
		if j.entry.err = j.err; j.err == nil {
			j.entry.rows = mergeBindings(j.perSrc, j.vars)
			if shared != nil && !anySkipped {
				shared.Put(j.text, f.epochs, j.entry.extension, bindingsBytes(j.entry.rows))
			}
		} else {
			f.mu.Lock()
			if f.cache[j.text] == j.entry {
				delete(f.cache, j.text)
			}
			f.mu.Unlock()
		}
		close(j.entry.done)
	}

	// assemble results per pattern, first error in pattern order wins
	out := make([][]pattern.Binding, len(gp))
	for i, w := range wants {
		out[i] = w.rows
		if w.entry != nil {
			<-w.entry.done
			if w.entry.err != nil {
				return nil, w.entry.err
			}
			out[i] = w.entry.as(w.vars)
		}
	}
	return out, nil
}
