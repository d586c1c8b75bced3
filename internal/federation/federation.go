// Package federation implements the prototype architecture of Section 5 of
// the paper: a SPARQL query engine that provides unified access to the
// mapped sources of an RDF Peer System. A query posed in any vocabulary
// known to the system is (a) rewritten by the query rewriting module so
// that all certain answers are retrievable, and (b) executed by the
// federated query module, which selects the relevant sources per triple
// pattern (via the registry's schema routing), poses sub-queries to the
// peers' SPARQL services, and joins the sub-query results at the mediator.
//
// # Rewrite once per shape
//
// The rewriting module runs in front of every query (Answer and Plan
// alike), but an Engine rewrites each query shape only once: it holds a
// rewrite.Memo over its system's mappings. Two queries share a shape when
// they differ only in constants that no GMA and no equivalence mentions —
// the entity a path starts from, a literal it ends at. The soundness
// condition is that rewriting is generic in such constants: a piece
// unifier compares constants only for equality, so renaming one that no
// mapping mentions commutes with every rewriting step, and the cached
// rewriting with the placeholders mapped back is the query's own. Adding a
// mapping moves the system's mapping version and empties the memo.
// rps_fed_rewrite_memo_total{result="hit"|"miss"} counts how often a shape
// was known.
//
// Sub-queries cross the wire over canonical variable names (?v0 ?v1 … in
// position order, mapped back when the rows arrive), so the rewriting's
// renamed-apart variables never reach a peer and alpha-equivalent patterns
// of different disjuncts share one fetch.
//
// The mediator is a concurrent, streaming executor built on the planner's
// parallel primitives: the UCQ's disjuncts evaluate concurrently through
// plan.Fanout (the parallel Union pushed below the mediator, so federated
// disjuncts overlap network latency instead of paying it serially), every
// remote fetch goes through a shared, concurrency-safe result cache that
// deduplicates identical sub-queries across disjuncts (including in-flight
// ones, singleflight-style), and per-peer in-flight windows bound how many
// requests one peer sees at a time.
//
// Every disjunct runs through one evaluator. joinOrder follows the body's
// join graph: start at the pattern with the fewest variables, then always
// take a pattern sharing a variable with what is already bound, opening a
// new component — a true cross product — only when nothing connected
// remains. fetcher.joinStep then decides, from the bindings accumulated so
// far, what crosses the network: when their distinct restrictions to the
// next pattern fit in one probe wave (batch size × in-flight window,
// DefaultBindLimit at the defaults) they ship source-ward as native VALUES
// blocks joined against a single copy of the pattern — one pattern scan per
// probe at the peer, however many bindings it carries — and only the
// compatible fragment comes back; otherwise, or when some binding restricts
// nothing (a blank node, a disconnected pattern), the pattern's whole
// extension does. The sides hash-join at the mediator on the smaller input;
// Metrics.BindSteps / ExtensionSteps count the branches. A body with no
// subject or object constant fetches at least two extensions whatever the
// order, so it fetches them all up front, those routed to one source in
// one batched message (peer.MsgSPARQLBatch), and joins in the same order.
//
// # Streaming
//
// When the client can stream (StreamClient — peer.Client and
// peer.HTTPClient both can), sub-query results cross the wire as chunked
// streams instead of one-shot documents: extension fetches hand rows to
// downstream joins as chunks arrive (plan.RemoteScan.FetchStream), ASK
// probes stop the peer's scan at the first row, and canceling the query —
// or losing a hedged race — closes the stream so the peer abandons the
// rest of the scan. A stream that dies mid-flight is a transient error
// like any other: the retry loop restarts the fetch from scratch (results
// are deduplicated, so a restart never duplicates rows). A client without
// QueryStream gets the one-shot wire: every sub-query result arrives as
// one document, fully materialised at the peer.
//
// Engine.Plan exposes the federated side as first-class plan operators:
// per-disjunct mediator plans whose plan.RemoteScan leaves stand in
// joinOrder's order, folded by plan.RemoteJoin steps bound to the same
// fetcher.joinStep, under a parallel Union — both executable and
// EXPLAINable (rpsquery -mode federation -explain / -analyze).
//
// # Fault tolerance
//
// The mediator does not assume every peer answers every sub-query. Every
// peer call — extension fetch, probe batch, batched protocol
// message — runs under a retry loop (Options.Retry): transient failures
// (unreachable nodes, mid-stream death, transport errors, HTTP 5xx,
// per-attempt deadlines — peer.Retryable) are retried with doubling,
// jittered backoff, while terminal failures (malformed queries, HTTP 4xx,
// cancellation) return immediately. Each registry entry is treated as a
// replica set (PeerGroup: the primary address plus Entry.Replicas), and
// attempts after a failure prefer endpoints not yet tried, so a dead
// primary fails over to its replicas within one logical call.
//
// Endpoint health is tracked for the lifetime of the engine: consecutive
// transient failures open a per-endpoint circuit breaker
// (Options.BreakerThreshold) that rejects calls for a cooldown and then
// admits a single half-open probe; while some endpoint of a group is
// healthy, calls route around the open circuits, and when every endpoint
// is open the call fails fast (ErrCircuitOpen). The same health table
// carries a whole-call latency EWMA per endpoint, which drives hedging
// (Options.Hedge): if the primary attempt has not answered within 2× its
// typical latency, a duplicate attempt is issued against a replica, the
// first success wins, and the loser is canceled — tail latency protection
// against slow-but-alive peers.
//
// When a source stays unreachable after the full attempt budget, the
// mediator normally fails closed (certain answers must draw on every
// relevant source). Options.Partial opts into graceful degradation
// instead: the exhausted source contributes nothing, the query completes,
// and the answer is tagged as the correct subset it is — Metrics.Partial,
// Metrics.SkippedSources (with the per-source error), a partial=[…] mark
// on the RemoteScan plan leaves, and "-- partial: peer X unavailable"
// lines in EXPLAIN ANALYZE. Partial results never enter the shared answer
// cache.
package federation

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/sparql"
)

// DefaultBatchSize is the probe batch size when Options.BatchSize is zero:
// how many distinct bindings one probe query ships.
const DefaultBatchSize = 16

// DefaultMaxInFlight is the per-peer in-flight window when
// Options.MaxInFlight is zero.
const DefaultMaxInFlight = 4

// DefaultBindLimit is the largest left side a join step ships as bindings
// at the default batch size and window: one probe wave, every probe in
// flight at once. A larger one fetches the pattern's extension instead.
const DefaultBindLimit = DefaultBatchSize * DefaultMaxInFlight

// Options configures the engine.
type Options struct {
	// Rewrite bounds the rewriting module.
	Rewrite rewrite.Options
	// BatchSize caps how many distinct bindings one probe query carries
	// (0 = DefaultBatchSize; 1 = per-binding probing).
	BatchSize int
	// MaxInFlight caps concurrently outstanding requests per peer
	// (0 = DefaultMaxInFlight).
	MaxInFlight int
	// AnswerCache, when non-nil, upgrades the per-query fetch cache to a
	// shared epoch-keyed answer cache: remote extensions and probe results
	// survive across query executions and are re-validated at lookup
	// against the vector of peer graph versions, so a cached extension is
	// served only until some peer's epoch moves. Requires the mediator's
	// System (peer versions come from it); ignored otherwise.
	AnswerCache *qcache.Cache
	// Retry bounds the retry loop around every peer call; the zero value
	// retries transient failures up to DefaultMaxAttempts times with
	// doubling, jittered backoff. Set MaxAttempts to 1 to restore the
	// fail-on-first-error mediator.
	Retry RetryPolicy
	// Hedge enables hedged requests: when a source has replicas and the
	// current attempt has not answered within the hedge delay, a duplicate
	// attempt races against a replica and the first success wins (the
	// loser is canceled). Off by default — hedging trades duplicate work
	// for tail latency.
	Hedge bool
	// HedgeAfter overrides the hedge delay (0 = adaptive: 2× the
	// endpoint's whole-call latency EWMA, DefaultHedgeDelay before any
	// observation).
	HedgeAfter time.Duration
	// BreakerThreshold is the number of consecutive transient failures
	// that opens an endpoint's circuit breaker (0 disables the breaker:
	// every endpoint is always admitted, the historical behaviour).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// admitting a half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Partial opts into graceful degradation: when a source is exhausted
	// after retries (transient errors only — terminal errors still fail
	// the query), the mediator returns the certain answers computable from
	// the remaining sources, tagged via Metrics.Partial and
	// Metrics.SkippedSources, instead of failing closed.
	Partial bool
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

func (o Options) window() int {
	if o.MaxInFlight <= 0 {
		return DefaultMaxInFlight
	}
	return o.MaxInFlight
}

// bindLimit is one probe wave under these options (see DefaultBindLimit).
func (o Options) bindLimit() int { return o.batchSize() * o.window() }

// Metrics describes one federated query execution.
type Metrics struct {
	// Disjuncts is the size of the UCQ produced by the rewriting module.
	Disjuncts int
	// RewriteTruncated reports an incomplete (bounded) rewriting.
	RewriteTruncated bool
	// RemoteCalls counts messages sent to peers (a batched message carrying
	// several sub-queries or bindings counts once — it costs one round
	// trip).
	RemoteCalls int
	// Batches counts the batched messages among RemoteCalls: multi-binding
	// probe queries and multi-query messages.
	Batches int
	// RowsFetched counts result rows shipped back from peers.
	RowsFetched int
	// BindSteps and ExtensionSteps count the join steps (fetcher.joinStep,
	// per disjunct, cache hits included) that shipped the accumulated
	// bindings and those that fetched the pattern's whole extension.
	BindSteps      int
	ExtensionSteps int
	// SourcesContacted is the number of distinct peers queried.
	SourcesContacted int
	// CacheHits counts sub-queries answered from the shared fetch cache
	// instead of the network (identical patterns recur across the disjuncts
	// of large rewritings; concurrent duplicates coalesce onto one in-flight
	// fetch).
	CacheHits int
	// InFlightMax is the peak number of concurrently outstanding remote
	// requests the mediator had — >1 only when the parallel executor
	// actually overlapped network latency.
	InFlightMax int
	// Retries counts attempts after the first for failed peer calls.
	Retries int
	// Failovers counts attempts routed to a different endpoint of a
	// source's replica set than the previous attempt.
	Failovers int
	// Hedges counts hedged (duplicate) attempts launched; HedgeWins counts
	// the hedges whose duplicate answered first.
	Hedges    int
	HedgeWins int
	// BreakerFastFails counts logical calls rejected without touching the
	// network because every endpoint of the group had an open circuit.
	BreakerFastFails int
	// Partial reports a degraded answer: some source was skipped after
	// exhausting its attempt budget (Options.Partial only). The answer is
	// the correct subset of the certain answers computable without the
	// skipped sources.
	Partial bool
	// SkippedSources is the completeness report of a partial answer: which
	// sources contributed nothing, and why, in source-name order.
	SkippedSources []SkippedSource
}

// SkippedSource is one entry of a partial answer's completeness report.
type SkippedSource struct {
	// Source is the logical peer name.
	Source string
	// Err summarises the post-retry error that exhausted the source.
	Err string
}

// PartialSummary renders the completeness report as EXPLAIN ANALYZE
// comment lines ("-- partial: peer X unavailable (…)"); empty for complete
// answers.
func (m *Metrics) PartialSummary() []string {
	out := make([]string, 0, len(m.SkippedSources))
	for _, s := range m.SkippedSources {
		out = append(out, fmt.Sprintf("-- partial: peer %s unavailable (%s)", s.Source, s.Err))
	}
	return out
}

// Client abstracts how the mediator reaches a peer's SPARQL service: the
// simulated network client (peer.Client), the HTTP client (peer.HTTPClient)
// or anything else that can answer a query at an address. Every request
// carries the mediator's per-query context, so sub-queries of a canceled
// federated query are abandoned at the transport.
type Client interface {
	QueryContext(ctx context.Context, addr, queryText string) (*sparql.Result, error)
}

// BatchClient is a Client that can additionally ship several query texts in
// one message (peer.Client and peer.HTTPClient both can). The mediator uses
// it to collapse the per-source extension fetches of an unanchored body
// into one round trip; plain Clients degrade to one message per query.
type BatchClient interface {
	Client
	QueryBatch(ctx context.Context, addr string, queries []string) ([]*sparql.Result, error)
}

// StreamClient is a Client that can open a sub-query as a chunked result
// stream (peer.Client and peer.HTTPClient both can). The mediator prefers
// it when present: rows reach the joins as chunks arrive, and closing the
// stream early stops the peer-side scan. A client without it gets the
// one-shot wire.
type StreamClient interface {
	Client
	QueryStream(ctx context.Context, addr, queryText string) (*peer.ResultStream, error)
}

// Engine is the mediator.
type Engine struct {
	sys    *core.System
	reg    *peer.Registry
	client Client
	batch  BatchClient  // client, when it supports batched messages
	stream StreamClient // client, when it can stream results
	opts   Options
	acache *qcache.Layer // shared answer cache for remote fetches, nil when off
	// health is the engine-lifetime endpoint health table: breaker state,
	// consecutive-failure counts, and whole-call latency EWMAs survive
	// across query executions, so one query's failures protect the next.
	health *healthRegistry
	// memo holds the rewriting of every query shape seen so far (see
	// rewriteQuery).
	memo rewrite.Memo
}

// New creates an engine over a system (the mediator's knowledge of schemas
// and mappings), a registry of peer services, and a query client.
func New(sys *core.System, reg *peer.Registry, client Client, opts Options) *Engine {
	bc, _ := client.(BatchClient)
	sc, _ := client.(StreamClient)
	e := &Engine{sys: sys, reg: reg, client: client, batch: bc, stream: sc, opts: opts}
	e.health = newHealthRegistry(opts.BreakerThreshold, opts.BreakerCooldown)
	if opts.AnswerCache != nil && sys != nil {
		e.acache = opts.AnswerCache.Layer("federation")
	}
	return e
}

// epochVector reads the current version of every peer graph, in the
// system's stable peer order. It is captured once per query execution
// (before any fetch): cached fetch results are stamped with it and served
// only to executions observing the identical vector, so a peer write
// invalidates every dependent entry at its next lookup.
func (e *Engine) epochVector() []uint64 {
	if e.acache == nil || e.sys == nil {
		return nil
	}
	peers := e.sys.Peers()
	v := make([]uint64, len(peers))
	for i, p := range peers {
		if g := p.Data(); g != nil {
			v[i] = g.Version()
		}
	}
	return v
}

// Answer computes the certain answers of q by rewriting and federated
// evaluation. When the rewriting saturates (Proposition 2 conditions) the
// result is exactly ans(q, P, D).
func (e *Engine) Answer(q pattern.Query) (*pattern.TupleSet, *Metrics, error) {
	return e.AnswerCtx(context.Background(), q)
}

// AnswerCtx is Answer under a request context: sub-queries inherit ctx,
// in-flight fetches are abandoned on cancellation, and the error is
// ctx.Err() when the deadline cut the evaluation short.
func (e *Engine) AnswerCtx(ctx context.Context, q pattern.Query) (*pattern.TupleSet, *Metrics, error) {
	res, err := e.rewriteQuery(q)
	if err != nil {
		return nil, nil, err
	}
	return e.answerUCQ(ctx, res)
}

// rewriteQuery is the rewriting module in front of every federated query
// (AnswerCtx and Plan alike): the engine's shape memo over the system's
// mappings, so a query whose shape was seen before costs one substitution
// pass instead of a rewriting run (see the package comment).
func (e *Engine) rewriteQuery(q pattern.Query) (*rewrite.Result, error) {
	res, hit, err := e.memo.Rewrite(q, e.sys, e.opts.Rewrite)
	if err != nil {
		return nil, err
	}
	if hit {
		obsMemoHits.Inc()
	} else {
		obsMemoMisses.Inc()
	}
	return res, nil
}

// AnswerWithTGDs is Answer with an explicit dependency set (used by the
// baselines to restrict or disable the rewriting module).
func (e *Engine) AnswerWithTGDs(q pattern.Query, sigma []rewrite.TripleTGD) (*pattern.TupleSet, *Metrics, error) {
	res, err := rewrite.RewriteTGDs(q, sigma, e.opts.Rewrite)
	if err != nil {
		return nil, nil, err
	}
	return e.answerUCQ(context.Background(), res)
}

// answerUCQ evaluates the rewriting's disjuncts concurrently through
// plan.Fanout and merges their certain-answer tuples in disjunct order.
// All disjuncts share one fetcher, so identical sub-queries hit the cache
// no matter which disjunct issued them first; on failure the error of the
// lowest-indexed failing disjunct is returned, so parallel runs report
// errors deterministically. The rule applies to
// post-retry errors: a disjunct's error surfaces only after its peer calls
// exhausted their attempt budget (wrapped with the attempt count, %w chain
// intact), so the winning error is as stable under retries as without
// them.
func (e *Engine) answerUCQ(ctx context.Context, res *rewrite.Result) (*pattern.TupleSet, *Metrics, error) {
	f := newFetcher(e)
	n := len(res.Disjuncts)
	sets := make([]*pattern.TupleSet, n)
	errs := make([]error, n)
	plan.Fanout(n, func(i int) {
		d := res.Disjuncts[i]
		bindings, err := e.evalDisjunct(ctx, f, d.Query.GP)
		if err != nil {
			errs[i] = err
			return
		}
		s := pattern.NewTupleSet()
		d.Project(bindings, s)
		sets[i] = s
	})
	m := f.snapshot(res)
	publishMetrics(m)
	if err := ctx.Err(); err != nil {
		return nil, m, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, m, err
		}
	}
	out := pattern.NewTupleSet()
	for _, s := range sets {
		out.Merge(s)
	}
	return out, m, nil
}

// Federated-query metrics in the process registry; publishMetrics folds one
// execution's Metrics in exactly once, at the end of answerUCQ (the
// per-query snapshot stays available via PlannedQuery.Metrics and the
// Answer return — this is the fleet-wide accumulation a scrape sees).
var (
	obsQueries   = obs.Default.Counter("rps_fed_queries_total", "Federated queries answered")
	obsCalls     = obs.Default.Counter("rps_fed_remote_calls_total", "Messages sent to peers")
	obsBatches   = obs.Default.Counter("rps_fed_batches_total", "Batched messages among remote calls")
	obsRows      = obs.Default.Counter("rps_fed_rows_fetched_total", "Result rows shipped back from peers")
	obsBindSteps = obs.Default.Counter(`rps_fed_join_steps_total{strategy="bind"}`, "Mediator join steps, by what crossed the network: the left side's bindings or the pattern's extension")
	obsExtSteps  = obs.Default.Counter(`rps_fed_join_steps_total{strategy="extension"}`, "Mediator join steps, by what crossed the network: the left side's bindings or the pattern's extension")
	obsCacheHits = obs.Default.Counter("rps_fed_cache_hits_total", "Sub-queries answered from the fetch cache")
	obsInFlight  = obs.Default.Gauge("rps_fed_in_flight_peak", "Peak concurrently outstanding remote requests of any query")
	obsDisjuncts = obs.Default.Histogram("rps_fed_disjuncts", "UCQ size per federated query (power-of-two buckets)")

	// Fault-tolerance families. Registered at package init so the families
	// scrape (at zero) even before the first fault.
	obsRetryAttempts  = obs.Default.Counter("federation_retry_attempts_total", "Peer-call attempts after the first (retries)")
	obsRetryExhausted = obs.Default.Counter("federation_retry_exhausted_total", "Peer calls that failed after the full attempt budget")
	obsFailovers      = obs.Default.Counter("federation_retry_failovers_total", "Attempts routed to a different replica endpoint after a failure")
	obsHedgeLaunched  = obs.Default.Counter("federation_hedge_launched_total", "Hedged (duplicate) attempts launched against replicas")
	obsHedgeWins      = obs.Default.Counter("federation_hedge_wins_total", "Hedged attempts whose duplicate answered first")
	obsBreakerOpens   = obs.Default.Counter("federation_breaker_opens_total", "Endpoint circuit breakers opened (incl. failed half-open probes)")
	obsBreakerProbes  = obs.Default.Counter("federation_breaker_halfopen_probes_total", "Half-open recovery probes admitted through an open circuit")
	obsBreakerReject  = obs.Default.Counter("federation_breaker_fastfail_total", "Logical calls failed fast because every replica endpoint was circuit-open")
	obsPartial        = obs.Default.Counter("federation_partial_answers_total", "Degraded (partial) federated answers returned under Options.Partial")
	obsSkipped        = obs.Default.Counter("federation_skipped_sources_total", "Sources skipped after exhausting their attempt budget")
)

// Rewriting-memo outcomes, counted per rewriteQuery call.
var (
	obsMemoHits   = obs.Default.Counter(`rps_fed_rewrite_memo_total{result="hit"}`, "Federated rewritings, by whether the query's shape was in the engine's memo")
	obsMemoMisses = obs.Default.Counter(`rps_fed_rewrite_memo_total{result="miss"}`, "Federated rewritings, by whether the query's shape was in the engine's memo")
)

func publishMetrics(m *Metrics) {
	obsQueries.Inc()
	obsCalls.Add(int64(m.RemoteCalls))
	obsBatches.Add(int64(m.Batches))
	obsRows.Add(int64(m.RowsFetched))
	obsBindSteps.Add(int64(m.BindSteps))
	obsExtSteps.Add(int64(m.ExtensionSteps))
	obsCacheHits.Add(int64(m.CacheHits))
	obsInFlight.SetMax(int64(m.InFlightMax))
	obsDisjuncts.Observe(int64(m.Disjuncts))
	if m.Partial {
		obsPartial.Inc()
	}
	obsSkipped.Add(int64(len(m.SkippedSources)))
}

// evalDisjunct evaluates one conjunctive body across the peers: patterns in
// joinOrder's order, each step through fetcher.joinStep — or, for a body
// that is not anchored, over extensions fetched up front.
func (e *Engine) evalDisjunct(ctx context.Context, f *fetcher, gp pattern.GraphPattern) ([]pattern.Binding, error) {
	ordered := joinOrder(gp)
	var exts [][]pattern.Binding
	var err error
	if !anchored(ordered) {
		if exts, err = f.fetchExtensions(ctx, ordered); err != nil {
			return nil, err
		}
	}
	acc := []pattern.Binding{{}} // the join identity
	for i, tp := range ordered {
		var ext []pattern.Binding
		switch {
		case exts != nil:
			ext = exts[i]
		case i == 0:
			ext, err = f.fetchPattern(ctx, tp)
		default:
			ext, _, err = f.joinStep(ctx, tp, acc)
		}
		if err != nil {
			return nil, err
		}
		if acc = joinBindings(acc, ext); len(acc) == 0 {
			return nil, nil
		}
	}
	return acc, nil
}

// joinOrder orders a conjunctive body greedily along its join graph (see
// the package comment): fewest unbound variables first among the patterns
// connected to what is already bound, body order on ties. A pattern with
// nothing left unbound is a lookup and counts as connected.
func joinOrder(gp pattern.GraphPattern) pattern.GraphPattern {
	out := make(pattern.GraphPattern, 0, len(gp))
	used := make([]bool, len(gp))
	bound := make(map[string]bool)
	for len(out) < len(gp) {
		best, bestConnected, bestUnbound := -1, false, 0
		for i, tp := range gp {
			if used[i] {
				continue
			}
			unbound, connected := 0, false
			for _, e := range tp.Elems() {
				switch {
				case !e.IsVar():
				case bound[e.Var()]:
					connected = true
				default:
					unbound++ // per position: ?x p ?x is less selective than c p ?x
				}
			}
			connected = connected || unbound == 0
			if best < 0 || (connected && !bestConnected) || (connected == bestConnected && unbound < bestUnbound) {
				best, bestConnected, bestUnbound = i, connected, unbound
			}
		}
		used[best] = true
		out = append(out, gp[best])
		for _, v := range gp[best].Vars() {
			bound[v] = true
		}
	}
	return out
}

// anchored reports whether some pattern carries a subject or object
// constant: something selective to start from and carry along.
func anchored(gp pattern.GraphPattern) bool {
	for _, tp := range gp {
		if !tp.S.IsVar() || !tp.O.IsVar() {
			return true
		}
	}
	return false
}

// joinBindings is Ω₁ ⋈ Ω₂ through the algebra's hash join, hashing the
// smaller set (HashJoinBindings drains its right argument as the build
// side).
func joinBindings(a, b []pattern.Binding) []pattern.Binding {
	if len(a) == 1 && len(a[0]) == 0 {
		return b // a is the join identity
	}
	if len(a) <= len(b) {
		return plan.HashJoinBindings(b, a)
	}
	return plan.HashJoinBindings(a, b)
}

// patternIRIs returns the constant IRIs of a pattern (for source selection).
func patternIRIs(tp pattern.TriplePattern) []rdf.Term {
	var out []rdf.Term
	for _, e := range tp.Elems() {
		if !e.IsVar() && e.Term().IsIRI() {
			out = append(out, e.Term())
		}
	}
	return out
}

// renderPatternQuery renders a triple pattern as a SPARQL query. With no
// restrictions: a SELECT over the pattern's variables (ASK if fully
// ground). With restrictions: a probe batch — SELECT DISTINCT over the
// pattern's variables carrying the shipped bindings, so a single query
// ships a whole batch and the projection echoes the bindings back, so the
// mediator joins each returned row against the accumulated bindings by
// compatibility — the same join per-binding probing performs, at a
// fraction of the round trips.
//
// The restrictions must all bind the same variable set (probe partitions
// them so — see probe): the batch renders as ONE copy of the pattern
// joined with a native VALUES block, so the peer evaluates one pattern
// scan per probe, however many bindings it carries.
//
// The text names the variables canonically, ?v0 ?v1 … in order of first
// position (S, P, O), and projects them in that order; the returned vars
// are the pattern's own names in the same order, which is how the caller
// maps result columns back. Rewriting-internal names (g<N>·v) never reach
// the wire, and alpha-equivalent patterns of different disjuncts render to
// one text, so they share one fetch-cache entry (see extension).
func renderPatternQuery(tp pattern.TriplePattern, restrictions []pattern.Binding) (string, []string, error) {
	for _, e := range tp.Elems() {
		if !e.IsVar() && e.Term().IsBlank() {
			return "", nil, fmt.Errorf("federation: blank node constant in query pattern %v", tp)
		}
	}
	var vars, cols []string // the pattern's names and their wire names
	ren := func(e pattern.Elem) pattern.Elem {
		if !e.IsVar() {
			return e
		}
		i := slices.Index(vars, e.Var())
		if i < 0 {
			i = len(vars)
			vars, cols = append(vars, e.Var()), append(cols, "v"+strconv.Itoa(i))
		}
		return pattern.V(cols[i])
	}
	wire := pattern.TP(ren(tp.S), ren(tp.P), ren(tp.O))
	if len(restrictions) == 0 {
		sq := sparql.FromPatternQuery(pattern.Query{Free: cols, GP: pattern.GraphPattern{wire}}, nil)
		if len(vars) == 0 {
			sq.Form = sparql.FormAsk
		}
		return sq.String(), vars, nil
	}
	if !pattern.UniformDomain(restrictions) {
		return "", nil, fmt.Errorf("federation: probe restrictions of %v bind different variables", tp)
	}
	var bound, names []string
	for i, v := range vars {
		if _, ok := restrictions[0][v]; ok {
			bound, names = append(bound, v), append(names, cols[i])
		}
	}
	rows := make([]pattern.Tuple, len(restrictions))
	for i, r := range restrictions {
		row := make(pattern.Tuple, len(bound))
		for j, v := range bound {
			row[j] = r[v]
		}
		rows[i] = row
	}
	sq := &sparql.Query{
		Form:     sparql.FormSelect,
		Distinct: true,
		Vars:     cols,
		Where: &sparql.Group{
			BGP:      pattern.GraphPattern{wire},
			Children: []sparql.Expr{&sparql.Values{Names: names, Rows: rows}},
		},
	}
	return sq.String(), vars, nil
}

// restrictionDomain returns a restriction's bound variables, sorted.
func restrictionDomain(r pattern.Binding) []string {
	out := make([]string, 0, len(r))
	for v := range r {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// restrictionsOf projects the accumulated bindings onto the pattern's
// variables, deduplicated in first-seen order. Blank-node values are
// dropped from each restriction (a blank shipped as a constant would act as
// a fresh variable at the peer; the compatibility join handles them on the
// returned labels instead). ok is false when shipping them cannot pay: some
// binding restricts nothing — the full extension subsumes every probe — or
// there are more than limit distinct restrictions.
func restrictionsOf(acc []pattern.Binding, vars []string, limit int) (out []pattern.Binding, ok bool) {
	seen := make(map[string]bool, min(len(acc), limit+1))
	for _, mu := range acc {
		r := make(pattern.Binding, len(vars))
		for _, v := range vars {
			if t, bound := mu[v]; bound && !t.IsBlank() {
				r[v] = t
			}
		}
		if len(r) == 0 {
			return nil, false
		}
		k := pattern.BindingKey(r, vars)
		if !seen[k] {
			if len(out) == limit {
				return nil, false
			}
			seen[k] = true
			out = append(out, r)
		}
	}
	return out, true
}
