// Package plan is the streaming, cost-based query planner and executor that
// underlies every answering strategy of the reproduction. Graph patterns
// (the conjunctive fragment of Section 2.1) are compiled into a tree of
// classical relational-algebra operators realised as pull iterators, in the
// style of Janus-Datalog's "Datalog as relational algebra": specialised
// pattern evaluation is replaced by π, σ, ⋈ over the triple store.
//
// # Operator algebra
//
// Every operator implements Node (plan-time) and produces an Iterator
// (run time) whose Next() (pattern.Binding, bool) streams solution mappings
// without materialising intermediate Ω sets:
//
//   - IndexScan      leaf access path: one triple pattern matched against
//     the best of the graph's SPO/POS/OSP indexes. When the chosen index
//     partition spans the store's shards (object-only and unconstrained
//     scans over a sharded graph) and the estimated extension is large, the
//     planner marks the scan for fan-out: the shards drain concurrently
//     through rdf.Graph.MatchShard and merge in shard order.
//   - IndexNestedLoopJoin    ⋈ of a child stream with a triple pattern:
//     each child binding instantiates the pattern and probes the index.
//     The iterator accumulates child rows in probe batches (Batch, default
//     64) and probes once per distinct instantiated pattern, so repeated
//     join keys share one index descent; only one batch's matches are
//     buffered at a time, and EXPLAIN ANALYZE reports batch=…/probes=….
//   - HashJoin       ⋈ of two streams on their shared variables: the right
//     (build) side is hashed once, the left (probe) side streams. Chosen by
//     the planner when the next pattern shares no variable with the rows
//     produced so far (a cross product, where re-scanning per row would be
//     quadratic), by the federation mediator to join remote extensions,
//     and by the SPARQL lowering to join a group's children — as a left
//     outer join (Optional) for OPTIONAL.
//     When the build side is a cross-shard fan-out scan, the hash table is
//     built shard-parallel: per-worker maps, merged once in shard order
//     (build=parallel in EXPLAIN), so the build costs one pass of the
//     slowest shard instead of a serial drain.
//   - Project        π onto a variable list.
//   - Distinct       δ by a collision-free (length-prefixed) binding key.
//   - Filter         σ by an arbitrary predicate on bindings.
//   - Union          ∪ of subplans, always parallel: the branches fan out
//     across GOMAXPROCS-bounded goroutines and merge deterministically in
//     branch order (or as they arrive, in the streaming form).
//   - RemoteScan     the federated leaf: one pattern answered by its
//     candidate peers' SPARQL services instead of a local index, annotated
//     with source fan-out and per-peer in-flight window (the federation
//     mediator injects the fetch closures).
//   - RemoteJoin     the federated join step: drains its left input, then
//     asks its RemoteScan right side for what the join needs — the answers
//     to the left side's bindings shipped as probes when they are few
//     (bind<=N batch=B), the pattern's whole extension otherwise — and
//     hash-joins the two on the smaller side.
//
// When a disconnected pattern forces a HashJoin, the planner hashes the
// genuinely smaller input: it tracks the accumulated output estimate of the
// plan prefix and builds on the prefix when that estimate is below the new
// leaf's, on the leaf otherwise.
//
// # Cost model
//
// The planner orders the triple patterns of a BGP greedily by estimated
// output cardinality. The estimate for a pattern given the set of already
// bound variables is
//
//	est(tp) = MatchCount(constants of tp) / Π distinct(position)
//
// where the product ranges over the pattern's variable positions already
// bound by earlier operators. For a pattern with a constant predicate,
// distinct(position) comes from that predicate's own statistics
// (rdf.Graph.PredStats: distinct subjects and objects of its extension,
// maintained incrementally in its POS shard); the global distinct counts of
// rdf.Stats remain the fallback when the predicate is a variable. For a
// bound object position the distinct count is further corrected for skew
// by the predicate's heavy-hitter histogram (rdf.Graph.PredTopObjects):
// the divisor is the effective distinct count T²/Σcᵢ², so predicates whose
// objects concentrate on a few hub values are not mistaken for uniformly
// selective probes. The
// MatchCount numerator is exact — it is read off the index without
// materialisation — and the denominator approximates per-value fan-out.
// A pattern that can never match (count 0) is scheduled first so execution
// short-circuits. Ties break on textual order, keeping plans deterministic.
//
// # Snapshots, sharded store and plan cache
//
// Execution is snapshot-isolated: Execute, ExecuteQuery, Ask and the
// Explain variants freeze a live graph once (rdf.Freeze) and run the whole
// operator tree against the resulting rdf.Snapshot, so no join can observe
// a torn write no matter how writers storm mid-query, and long scans never
// block those writers (the store's read path is lock-free). Explain output
// leads with the snapshot epoch the query would run against. Callers that
// need several evaluations against one instant (the chase's Jacobi rounds)
// pass their own Snapshot — everything here accepts the rdf.Source
// interface, satisfied by live graphs and snapshots alike.
//
// The store underneath (internal/rdf) partitions its SPO/OSP indexes by
// subject hash and its POS index by predicate hash, each shard an
// immutable, atomically-published persistent trie, so scans, chase rounds
// and bulk loads proceed in parallel. The planner is shard-aware at two
// points: leaf scans whose access path spans shards fan out (above), and
// per-predicate cardinalities are read from the POS shards (the cost
// model, above).
//
// Join orders are memoised in a process-wide plan cache keyed by pattern
// *shape* — the pattern structure with constants abstracted — plus the
// graph's identity and log₂-size bucket. The chase re-plans the same
// mapping bodies (and per-delta instantiations differing only in constants)
// thousands of times; a shape hit replays the recorded join order over the
// concrete patterns, skipping the index probes and the greedy pick loop.
// Entries expire when the graph roughly doubles. CacheStats exposes the
// hit/miss counters and Explain prefixes cached plans with a marker line.
//
// # How the answering strategies map onto the algebra
//
//   - Materialisation (internal/chase): applicability checks of Algorithm 1
//     — "does Q' already hold for this tuple?" — run as Ask, which stops at
//     the first streamed row; GMA body evaluation runs as Execute.
//   - FO-rewriting (internal/rewrite): the UCQ produced by TGD-rewrite is a
//     parallel Union of per-disjunct plans; answers merge into a TupleSet,
//     giving the deduplicated, deterministic certain-answer set.
//   - Combined approach: same as rewriting, over the canonical database.
//   - Federation (internal/federation): the mediator answers by draining
//     its plan — RemoteScan leaves folded by RemoteJoin steps, which join
//     what a step fetched (probe answers or the pattern's extension) with
//     HashJoinBindings, or by HashJoin when the body has no constant.
//   - SPARQL (internal/sparql): every query lowers through Query.Plan to
//     one tree — a group's BGP planned here, its other children joined by
//     HashJoin (Optional for OPTIONAL), UNION as Union, VALUES as
//     InlineBindings, FILTER as Filter — which one-shot answers drain and
//     the streaming wire pulls row by row.
//
// pattern.EvalNaive remains the executable specification and equivalence
// oracle of Execute.
package plan
