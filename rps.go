// Package rps is a peer-to-peer semantic integration framework for Linked
// Data, reproducing Dimartino, Calì, Poulovassilis and Wood, "Peer-to-Peer
// Semantic Integration of Linked Data" (EDBT/ICDT 2015 workshops).
//
// An RDF Peer System (RPS) integrates heterogeneous RDF sources without a
// centralised schema: each peer is described by the set of IRIs it uses,
// and the semantic relationships between peers are expressed by graph
// mapping assertions (Q ⤳ Q′, containment of graph pattern queries) and
// equivalence mappings (c ≡ₑ c′, the semantics of owl:sameAs). Query
// answering returns the certain answers: the tuples true in every database
// closed under the mappings.
//
// The package offers three answering strategies:
//
//   - Materialisation (Algorithm 1): chase the stored data to a universal
//     solution and evaluate queries over it. Always complete, PTIME in the
//     data (Theorem 1). See Materialize and CertainAnswers.
//   - First-order rewriting (Section 4): compile the query and mappings
//     into a union of conjunctive queries evaluated directly on the stored
//     data. Perfect when the mapping assertions are linear or sticky
//     (Proposition 2); impossible in general (Proposition 3). See Rewrite.
//   - The combined approach: canonicalise equivalence classes and rewrite
//     only the mapping assertions — the practical middle ground sketched in
//     the paper's future work. See NewCombined.
//
// A federated execution engine (package internal/federation, re-exported
// here as NewFederation) implements the Section 5 prototype: sub-queries
// are routed to per-peer SPARQL services by schema and joined at the
// mediator. The mediator is concurrent: the rewriting's UCQ disjuncts
// evaluate in parallel (the planner's Union pushed below the mediator, so
// federated disjuncts overlap network latency), identical sub-queries
// coalesce in a shared singleflight fetch cache, per-peer in-flight windows
// bound the load one peer sees. Each disjunct's patterns are evaluated
// along the join graph (never through a cross product while a connected
// pattern remains), and every join step decides from the cardinality it
// has just observed what crosses the network: a left side of at most one
// probe wave (64 distinct bindings by default) ships as native SPARQL
// VALUES blocks — one probe query carries a whole batch of bindings joined
// against a single copy of the pattern, so the peer pays ONE pattern scan
// per batch instead of one per binding — and a larger one fetches the
// pattern's extension; a body with no constant to start from fetches its
// extensions up front, concurrently. The federated answer is the drained
// federated plan, so EXPLAIN ANALYZE shows exactly what it ran. The wire
// is streamed: peers answer sub-queries as chunked row streams (pulled on
// demand over the simulated network, NDJSON frames over HTTP); in a
// federated plan opened for incremental consumption the mediator's joins
// and the parallel disjunct union consume rows as chunks arrive, and
// closing the plan early — ASK satisfied, LIMIT reached, a
// canceled query — closes the remote streams so peers stop scanning.
// Over HTTP the encoding is negotiated per request, so a server that only
// answers with the one-shot SPARQL JSON document still serves the
// mediator, and a client that can only answer whole has each answer read
// as a one-frame stream. Federated plans are first-class: EXPLAIN shows
// per-disjunct mediator plans with RemoteScan leaves in join order,
// annotated with source fan-out, the bind-or-fetch rule of each step and
// the in-flight window, and EXPLAIN ANALYZE adds the branch each step took (rpsquery
// -mode federation -explain / -analyze; tune the probe batch with
// -fed-batch on rpsd and rpsquery, and on rpsbench for its E7/A4 tables).
//
// Federation is fault-tolerant. Every sub-query runs under a retry policy
// (FederationOptions.Retry): transient failures — unreachable peers,
// mid-stream deaths, per-attempt timeouts — retry with exponential backoff
// and jitter, while terminal errors (malformed queries) fail immediately;
// the post-retry error keeps its cause chain (errors.Is still classifies
// it) with the attempt count recorded. Sources may be replica sets
// (DeployReplicatedPeers, Registry.AddReplica): retries fail over across
// endpoints, a per-endpoint circuit breaker (BreakerThreshold /
// BreakerCooldown) stops hammering dead replicas and re-probes them
// half-open after a cooldown, and hedged requests (Hedge / HedgeAfter)
// race a sub-query that outlives the source's latency EWMA against a
// replica, first answer wins. When every endpoint of a source is gone,
// FederationOptions.Partial opts into graceful degradation: the mediator
// skips the source, answers the partial certain-answer subset, and reports
// the skipped sources (FederationMetrics.SkippedSources, rendered as
// "-- partial: …" lines by EXPLAIN ANALYZE and the X-RPS-Partial header by
// rpsd); without it the query fails closed. The simulated network injects
// all of these faults (Fail, FailAfter, HealAfter, SetFlaky), rpsd/rpsquery
// expose the knobs as -fed-retries and -fed-partial (and rpsquery
// -fed-hedge and -fed-replicas), the federation_retry_*, federation_hedge_* and
// federation_breaker_* metric families land at /metrics, and the chaos
// suite (go test -run 'Rotating|Failover|Partial|Hedge|Breaker'
// ./internal/federation/) drives every one of these paths.
//
// Underneath all three strategies and the federated engine sits a single
// streaming, cost-based query planner and executor (package internal/plan):
// graph patterns compile into relational-algebra operator trees — index
// scans, index nested-loop and hash joins, projection, duplicate
// elimination, filters and (parallel) unions — realised as pull iterators
// over the graph's SPO/POS/OSP indexes, with join orders chosen from the
// indexes' cardinality statistics (Graph.Stats, refined per predicate by
// Graph.PredStats). The UCQ branches a rewriting produces evaluate as a
// parallel union across goroutines with a deterministic, deduplicated
// merge. ExplainQuery (and rpsquery -explain) renders the chosen plan; see
// internal/plan's package documentation for the operator algebra and the
// cost model.
//
// Execution is observable and interruptible. Every plan iterator carries a
// context.Context: per-request deadlines and cancellation propagate from
// rpsd's handlers (and rpsquery's -query-timeout) down through the
// operator tree and across the wire into federated sub-queries, so an
// abandoned query stops producing tuples instead of running to
// completion. EXPLAIN ANALYZE (plan.Instrument, rpsquery -analyze)
// executes the query with every operator wrapped in a stats shell and
// renders the tree annotated with actual rows, Next calls, inclusive wall
// time and hash-join build sizes — the root operator's count is the answer
// cardinality. Runtime metrics live in internal/obs, a dependency-free
// registry of atomic counters, gauges and power-of-two-bucket histograms
// (zero locks and zero allocations on the hot paths) with Prometheus text
// exposition: the store publishes per-peer triple counts, epochs,
// intern-table sizes and free-list reuse, the chase its rounds, GMA
// firings and batch sizes, the federation mediator its remote calls,
// cache hits and in-flight peaks, and rpsd its per-endpoint request
// counts, error counts and latency histograms. rpsd serves /metrics and
// net/http/pprof, logs queries slower than -slow-query, and shuts down
// gracefully (draining in-flight requests) on SIGINT/SIGTERM. The
// repository benchmark (benchmark/) drives it in a closed loop (the
// peer_cold and peer_hot workloads), and CI compares every pull request's
// numbers with its base's, so serving capacity is gated, not just recorded.
//
// Repeated queries are served from an epoch-keyed answer cache (package
// internal/qcache): a sharded, memory-budgeted cache keyed on the query
// text, its constants and the graph's identity, validated against the
// per-shard epoch vector of the snapshot being read (Snapshot.ShardEpochs),
// so a hit is provably the answer the uncached evaluation would compute —
// any effective write to any shard the answer depends on invalidates it.
// Identical in-flight queries collapse into one evaluation (singleflight),
// size-based admission control refuses residency to answers that would
// crowd out a shard, and a CLOCK sweep with second chances evicts cold
// entries when a shard runs over budget. The cache sits under plan.ExecuteQuery and
// plan.Ask, under SPARQL evaluation, and under the federation mediator's
// remote-extension fetches (keyed there by the peers' version vector);
// rpsd enables it by default (-result-cache, -result-cache-mb), EXPLAIN
// prints "-- answer cache: hit" for resident answers, /metrics exposes the
// qcache_ families, and the benchmark's peer_cold and peer_hot workloads
// measure every request missing and hitting it. The
// executor underneath batches index nested-loop join probes (repeated join
// keys share one index descent; EXPLAIN ANALYZE shows batch=…/probes=…),
// the planner corrects join-order estimates for skew with per-predicate
// heavy-hitter histograms (Graph.PredTopObjects), and the store's
// free-list sizes adapt to observed batch churn.
//
// The triple store itself (package internal/rdf) is sharded and safe for
// concurrent use: SPO/OSP indexes are subject-hash partitioned and POS is
// predicate-hash partitioned, with a striped concurrent intern table
// underneath. Its read path is epoch-based and lock-free: each shard's
// indexes are persistent (copy-on-write) tries published through an atomic
// pointer, so Match/Stats/PredStats never take a lock, long scans never
// block writers, and Graph.Snapshot captures a stable point-in-time view
// for free. Every query evaluates against one such snapshot (no torn reads
// mid-join — EXPLAIN names the snapshot epoch), each parallel chase round
// reads from its round-start snapshot, and rpsd serves every request from
// a snapshot so bulk loads never stall queries. The write path is batched
// to match: bulk writers (Graph.AddAll/Merge, the Turtle and mapfile
// loaders, the chase's per-round firings) open per-shard transient
// builders that mutate the tries in place under never-reused ownership
// tokens and freeze back into an immutable state with one publication and
// one epoch stamp per shard per batch — nothing of a batch is observable
// before commit, and steady-state bulk writes approach zero net
// allocations (recycled nodes, inline node storage). Readers scale across
// cores, large batches fan their per-shard builds out across the shards,
// large cross-shard scans execute as parallel fan-outs with a
// deterministic merge, and the chase can evaluate each round's
// applicability queries concurrently (ChaseOptions.Parallel). Join orders
// are memoised in a shape-keyed plan cache so the chase's repeated
// applicability checks skip re-planning (plan.CacheStats exposes hit/miss
// counters). NewGraphSharded fixes the shard count explicitly; the rpsd,
// rpsquery and rpsbench (experiment tables) commands expose it as -shards.
//
// The store is durable. A write-ahead log (package internal/wal) and
// snapshot checkpoints (package internal/checkpoint) sit under the graph
// through the rdf.Persistence hook: every committed batch is appended to a
// segmented, checksummed log before its shard states publish and
// group-committed per the fsync policy, and a background loop periodically
// walks a lock-free Snapshot into a checkpoint directory — the term
// dictionary once, each shard's triples as compact id streams — then
// retires the log segments the checkpoint covers. Recovery (package
// internal/durable) loads the newest checkpoint that validates end to end
// (falling back to older ones on corruption), bulk-loads it through
// rdf.Graph.RestoreBulk without re-interning a single string, replays the
// WAL tail, and truncates torn tails — so a peer restarts warm several
// times faster than re-parsing its Turtle sources, and a kill -9 at any
// byte loses nothing past the last group commit (proven by a
// crash-injection harness: internal/failfs cuts writes mid-stream,
// internal/durable's kill tests recover real SIGKILLed processes, and fuzz
// targets drive the WAL and checkpoint decoders). rpsd turns it on with
// -data-dir (tuning: -fsync always|interval|never, -checkpoint-every),
// checkpoints on graceful shutdown, skips Turtle re-parsing on a warm
// start, and exposes the wal_* and checkpoint_* metric families at
// /metrics. The benchmark's traced peer_cold run reports the cold Turtle
// load (mapfile.load_ms) against the warm restart (durable.recover_ms), and
// CI requires the restart to stay at least 5x faster.
//
// Quick start:
//
//	sys := rps.NewSystem()
//	src := sys.AddPeer("films")
//	_ = src.Add(rps.NewTriple(
//		rps.IRI("http://db1.example.org/Spiderman"),
//		rps.IRI("http://example.org/starring"),
//		rps.IRI("http://db1.example.org/Toby_Maguire")))
//	// … more peers, owl:sameAs links, mappings …
//	sys.HarvestSameAs()
//	q := rps.MustParseQuery(`SELECT ?x WHERE { ?x <http://example.org/starring> ?y }`)
//	answers, _ := rps.CertainAnswersSPARQL(sys, q)
package rps

import (
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/discovery"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
	"repro/internal/sparql"
	"repro/internal/turtle"
)

// RDF data model (package internal/rdf).
type (
	// Term is an RDF term: IRI, blank node or literal.
	Term = rdf.Term
	// Triple is an RDF triple.
	Triple = rdf.Triple
	// Graph is an indexed in-memory RDF graph.
	Graph = rdf.Graph
	// GraphSnapshot is a stable, point-in-time view of a Graph: reads take
	// no locks and later writes are never observed.
	GraphSnapshot = rdf.Snapshot
	// GraphSource is the shared read surface of Graph and GraphSnapshot;
	// query evaluation accepts either.
	GraphSource = rdf.Source
	// Namespaces maps prefixes to namespace IRIs.
	Namespaces = rdf.Namespaces
)

// Term constructors.
var (
	// IRI returns an IRI term.
	IRI = rdf.IRI
	// Blank returns a blank-node term.
	Blank = rdf.Blank
	// Literal returns a plain literal term.
	Literal = rdf.Literal
	// LangLiteral returns a language-tagged literal term.
	LangLiteral = rdf.LangLiteral
	// TypedLiteral returns a datatyped literal term.
	TypedLiteral = rdf.TypedLiteral
	// NewTriple assembles a triple.
	NewTriple = rdf.NewTriple
	// NewGraph returns an empty graph (default shard count: one per CPU).
	NewGraph = rdf.NewGraph
	// NewGraphSharded returns an empty graph with an explicit shard count.
	NewGraphSharded = rdf.NewGraphSharded
	// SetDefaultShardCount fixes the shard count NewGraph uses process-wide
	// (0 restores the automatic per-CPU default).
	SetDefaultShardCount = rdf.SetDefaultShardCount
	// FreezeGraph returns a stable point-in-time view of a source: the
	// Snapshot of a live Graph, or the source itself when already frozen.
	FreezeGraph = rdf.Freeze
	// NewNamespaces returns an empty prefix table.
	NewNamespaces = rdf.NewNamespaces
	// CommonNamespaces returns a prefix table with common bindings.
	CommonNamespaces = rdf.CommonNamespaces
)

// Graph pattern queries (package internal/pattern, Section 2.1).
type (
	// Query is a graph pattern query q(x) ← GP.
	Query = pattern.Query
	// GraphPattern is a conjunction of triple patterns.
	GraphPattern = pattern.GraphPattern
	// TriplePattern is one triple pattern.
	TriplePattern = pattern.TriplePattern
	// Elem is a variable or constant in a pattern position.
	Elem = pattern.Elem
	// Tuple is an answer tuple.
	Tuple = pattern.Tuple
	// TupleSet is a set of answer tuples.
	TupleSet = pattern.TupleSet
	// Binding is a mapping µ from variables to terms.
	Binding = pattern.Binding
)

// Pattern constructors and evaluators.
var (
	// V returns a variable element.
	V = pattern.V
	// C returns a constant element.
	C = pattern.C
	// TP assembles a triple pattern.
	TP = pattern.TP
	// NewQuery validates and builds a graph pattern query.
	NewQuery = pattern.NewQuery
	// MustQuery is NewQuery, panicking on error.
	MustQuery = pattern.MustQuery
	// EvalQuery computes Q_D (certain-answer semantics, names only)
	// through the planner.
	EvalQuery = plan.ExecuteQuery
	// EvalQueryStar computes Q*_D (blank nodes included) through the
	// planner.
	EvalQueryStar = plan.ExecuteQueryStar
)

// Query planning and execution (package internal/plan): the planner is the
// evaluator behind EvalQuery and every answering strategy.
var (
	// ExecutePattern evaluates ⟦GP⟧_D through the streaming planner.
	ExecutePattern = plan.Execute
	// ExplainPattern renders the execution plan of a graph pattern.
	ExplainPattern = plan.Explain
	// ExplainQuery renders the execution plan of a graph pattern query,
	// including projection and duplicate elimination.
	ExplainQuery = plan.ExplainQuery
	// UnionQueries evaluates a UCQ as a parallel union of per-branch plans.
	UnionQueries = plan.UnionQueries
)

// RDF Peer Systems (package internal/core, Section 2.2).
type (
	// System is an RPS P = (S, G, E).
	System = core.System
	// Peer couples a schema with a stored database.
	Peer = core.Peer
	// Schema is the set of IRIs a peer uses.
	Schema = core.Schema
	// GraphMappingAssertion is Q ⤳ Q′.
	GraphMappingAssertion = core.GraphMappingAssertion
	// EquivalenceMapping is c ≡ₑ c′.
	EquivalenceMapping = core.EquivalenceMapping
)

// NewSystem returns an empty RDF Peer System.
var NewSystem = core.NewSystem

// OWLSameAs is the owl:sameAs IRI harvested into equivalence mappings.
const OWLSameAs = core.OWLSameAs

// Chase-based query answering (package internal/chase, Section 3).
type (
	// Universal is a materialised universal solution.
	Universal = chase.Universal
	// ChaseOptions configures a chase run.
	ChaseOptions = chase.Options
	// ChaseStats reports what a chase run did.
	ChaseStats = chase.Stats
)

// Chase entry points.
var (
	// Materialize chases a system to a universal solution.
	Materialize = chase.Run
	// CertainAnswers chases and evaluates a graph pattern query.
	CertainAnswers = chase.CertainAnswers
)

// Query rewriting (package internal/rewrite, Section 4).
type (
	// RewriteOptions bounds the rewriting expansion.
	RewriteOptions = rewrite.Options
	// RewriteResult is a computed UCQ rewriting.
	RewriteResult = rewrite.Result
	// Combined is the combined (canonicalise + rewrite) answering engine.
	Combined = rewrite.Combined
)

// Rewriting entry points.
var (
	// Rewrite computes the UCQ rewriting of a query under a system.
	Rewrite = rewrite.Rewrite
	// NewCombined prepares the combined rewriter for a system.
	NewCombined = rewrite.NewCombined
)

// SPARQL fragment (package internal/sparql).
type (
	// SPARQLQuery is a parsed SPARQL query.
	SPARQLQuery = sparql.Query
	// SPARQLResult is a SELECT/ASK evaluation result.
	SPARQLResult = sparql.Result
)

// SPARQL entry points.
var (
	// ParseQuery parses a SPARQL query (SELECT/ASK fragment).
	ParseQuery = sparql.Parse
	// MustParseQuery parses with common namespaces, panicking on error.
	MustParseQuery = sparql.MustParse
)

// Turtle / N-Triples (package internal/turtle).
var (
	// ParseTurtle parses Turtle text with the common namespace bindings.
	ParseTurtle = turtle.ParseString
	// FormatNTriples serialises a graph canonically.
	FormatNTriples = turtle.FormatNTriples
	// FormatTurtle serialises a graph as Turtle.
	FormatTurtle = turtle.FormatTurtle
)

// Federation (packages internal/simnet, internal/peer,
// internal/federation — the Section 5 prototype).
type (
	// Network is the simulated P2P network.
	Network = simnet.Network
	// Node serves one peer's data on the network.
	Node = peer.Node
	// Registry is the super-peer routing table.
	Registry = peer.Registry
	// FederationEngine is the mediator.
	FederationEngine = federation.Engine
	// FederationOptions configures the mediator.
	FederationOptions = federation.Options
	// FederationMetrics describes one federated execution.
	FederationMetrics = federation.Metrics
	// FederationRetryPolicy bounds per-sub-query attempts, backoff and
	// per-attempt timeouts.
	FederationRetryPolicy = federation.RetryPolicy
	// PeerGroup is one source's replica set: the endpoints serving
	// identical data that retries fail over across.
	PeerGroup = federation.PeerGroup
	// SkippedSource names one source omitted from a partial answer.
	SkippedSource = federation.SkippedSource
)

// ErrCircuitOpen marks sub-query errors fast-failed by an open circuit
// breaker (all of a source's endpoints over the failure threshold).
var ErrCircuitOpen = federation.ErrCircuitOpen

// Federation constructors.
var (
	// NewNetwork returns a simulated network.
	NewNetwork = simnet.New
	// NewRegistry returns an empty routing table.
	NewRegistry = peer.NewRegistry
	// DeployPeers registers a node per peer on a network.
	DeployPeers = peer.Deploy
	// DeployReplicatedPeers registers a replica set per peer on a network,
	// so the mediator's failover and hedging have alternates to route to.
	DeployReplicatedPeers = peer.DeployReplicated
	// NewPeerClient returns a network SPARQL client.
	NewPeerClient = peer.NewClient
	// NewFederation builds the mediator engine.
	NewFederation = federation.New
)

// CertainAnswersSPARQL answers a conjunctive SPARQL query against a system
// using the chase (complete for every RPS). The query must be in the
// conjunctive fragment (no UNION/FILTER).
func CertainAnswersSPARQL(sys *System, q *SPARQLQuery) (*TupleSet, error) {
	pq, err := q.ToPatternQuery()
	if err != nil {
		return nil, err
	}
	return CertainAnswers(sys, pq)
}

// ---- future-work extensions (Section 5 of the paper) ----

// DiscoveryConfig tunes automatic mapping discovery (future-work item 3).
type DiscoveryConfig = discovery.Config

// DiscoveryReport holds discovered mapping candidates.
type DiscoveryReport = discovery.Report

// Discovery entry points.
var (
	// DiscoverMappings aligns entities and predicates across all peers.
	DiscoverMappings = discovery.Discover
	// ApplyDiscovered registers candidates above a confidence threshold.
	ApplyDiscovered = discovery.Apply
)

// DatalogProgram is a recursive rewriting of an RPS (future-work item 1):
// data-independent and complete even where Proposition 3 rules out UCQs.
type DatalogProgram = datalog.Program

// Datalog entry points.
var (
	// DatalogFromSystem translates a system into its Datalog rewriting.
	DatalogFromSystem = datalog.FromSystem
	// DatalogCertainAnswers answers a query by bottom-up evaluation.
	DatalogCertainAnswers = datalog.CertainAnswers
)
