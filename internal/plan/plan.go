package plan

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// inljProbeBatch is the planner's default probe batch for index nested
// loop joins: up to this many child rows accumulate per round and rows
// that instantiate the pattern identically share one index probe. Chain
// queries and star joins over skewed data repeat instantiations often;
// the batch turns those repeats into map lookups.
const inljProbeBatch = 64

// Plan compiles a graph pattern into an operator tree using greedy
// cost-based join ordering: at each step the remaining pattern with the
// lowest estimated cardinality (given the variables bound so far) is joined
// next — by index nested loop when it shares a variable with the rows
// produced so far, by hash join (buffered cross product) when it does not.
// Ties break on textual order, so plans are deterministic.
//
// Join orders are memoised in a shape-keyed plan cache (see cache.go); a
// hit replays the recorded order over the concrete patterns without
// re-probing the indexes.
func Plan(g rdf.Source, gp pattern.GraphPattern) Node {
	n, _ := planWithInfo(g, gp)
	return n
}

// planWithInfo is Plan, additionally reporting whether the join order came
// from the plan cache.
func planWithInfo(g rdf.Source, gp pattern.GraphPattern) (Node, bool) {
	if len(gp) == 0 {
		return Unit{}, false
	}
	useCache := cacheEnabled.Load() && len(gp) >= cacheMinPatterns
	var key string
	if useCache {
		key = cacheKey(g, gp)
		if ent, ok := cacheLookup(key); ok {
			return rebuild(g, gp, ent), true
		}
	}

	st := newStatsCtx(g)
	remaining := make([]pattern.TriplePattern, len(gp))
	copy(remaining, gp)
	idx := make([]int, len(gp))
	// The MatchCount base of each pattern depends only on its constants,
	// not on the bound set, so count once up front: re-counting per pick
	// round would walk index prefixes O(n²) times, which matters on the
	// chase's per-triple re-planning path.
	bases := make([]float64, len(remaining))
	for i, tp := range remaining {
		idx[i] = i
		bases[i] = float64(g.MatchCount(matchArgs(tp)))
	}
	bound := make(map[string]bool)
	var order []int
	var ests []float64

	pick := func() (pattern.TriplePattern, float64) {
		best, bestEst := 0, estimateRows(st, remaining[0], bases[0], bound)
		for i := 1; i < len(remaining); i++ {
			if est := estimateRows(st, remaining[i], bases[i], bound); est < bestEst {
				best, bestEst = i, est
			}
		}
		tp := remaining[best]
		order = append(order, idx[best])
		ests = append(ests, bestEst)
		remaining = append(remaining[:best], remaining[best+1:]...)
		bases = append(bases[:best], bases[best+1:]...)
		idx = append(idx[:best], idx[best+1:]...)
		for _, v := range tp.Vars() {
			bound[v] = true
		}
		return tp, bestEst
	}

	tp, est := pick()
	var root Node = leafScan(g, tp, est)
	// accEst tracks the estimated output cardinality of the plan prefix:
	// the leaf's row estimate, multiplied at each join by the next pattern's
	// estimate (per-prefix-row matches for an index nested loop, full leaf
	// cardinality for a disconnected cross product). It decides which side
	// of a HashJoin gets hashed — see joinHash.
	accEst := est
	for len(remaining) > 0 {
		before := snapshot(bound)
		tp, est := pick()
		if sharesVar(tp, before) {
			root = &IndexNestedLoopJoin{Left: root, TP: tp, Batch: inljProbeBatch, Est: est}
		} else {
			root = joinHash(root, leafScan(g, tp, est), accEst, est)
		}
		accEst *= est
	}
	if useCache {
		cacheStore(key, cacheEntry{order: order, ests: ests})
	}
	return root, false
}

// joinHash joins the accumulated prefix with a disconnected leaf by hash
// join, hashing the genuinely smaller input: the leaf when its estimate is
// at most the prefix's accumulated output estimate, the prefix otherwise.
// (HashJoin drains Right as the build side and streams Left.)
func joinHash(prefix Node, leaf *IndexScan, accEst, leafEst float64) *HashJoin {
	var hj *HashJoin
	if accEst < leafEst {
		hj = &HashJoin{Left: leaf, Right: prefix}
	} else {
		hj = &HashJoin{Left: prefix, Right: leaf}
	}
	// when the build (Right) side is a cross-shard fan-out scan, build the
	// hash table shard-parallel: per-worker maps, merged once in shard order
	if rs, ok := hj.Right.(*IndexScan); ok && rs.Fanout > 1 {
		hj.ParallelBuild = true
	}
	return hj
}

// rebuild replays a cached join order over the concrete patterns of gp.
// Operator choice is re-derived from the variable-sharing structure (which
// the shape key fully determines), so the resulting tree is exactly what
// the greedy planner would build given that order.
func rebuild(g rdf.Source, gp pattern.GraphPattern, ent cacheEntry) Node {
	bound := make(map[string]bool)
	tp := gp[ent.order[0]]
	var root Node = leafScan(g, tp, ent.ests[0])
	accEst := ent.ests[0]
	for _, v := range tp.Vars() {
		bound[v] = true
	}
	for k := 1; k < len(ent.order); k++ {
		tp := gp[ent.order[k]]
		est := ent.ests[k]
		if sharesVar(tp, bound) {
			root = &IndexNestedLoopJoin{Left: root, TP: tp, Batch: inljProbeBatch, Est: est}
		} else {
			root = joinHash(root, leafScan(g, tp, est), accEst, est)
		}
		accEst *= est
		for _, v := range tp.Vars() {
			bound[v] = true
		}
	}
	return root
}

// fanoutMinRows is the estimated leaf cardinality above which a cross-shard
// scan is worth parallelising: below it, goroutine fan-out costs more than
// the scan.
const fanoutMinRows = 4096

// leafScan builds the leaf access path for a pattern, marking it for
// cross-shard fan-out when the pattern's index partition spans shards
// (object-only or unconstrained scans), the graph is sharded, more than one
// CPU is available, and the scan is big enough to amortise the goroutines.
func leafScan(g rdf.Source, tp pattern.TriplePattern, est float64) *IndexScan {
	s := &IndexScan{TP: tp, Est: est}
	if g == nil {
		return s
	}
	sp, pp, op := matchArgs(tp)
	if w := g.FanoutWidth(sp, pp, op); w > 1 && est >= fanoutMinRows && runtime.GOMAXPROCS(0) > 1 {
		s.Fanout = w
	}
	return s
}

// QueryPlan wraps the body plan of a graph pattern query with projection
// onto its free variables and duplicate elimination — the full π·δ·⋈ shape
// a SELECT DISTINCT compiles to.
func QueryPlan(g rdf.Source, q pattern.Query) Node {
	return &Distinct{Child: &Project{Child: Plan(g, q.GP), Cols: q.Free}}
}

func snapshot(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sharesVar(tp pattern.TriplePattern, bound map[string]bool) bool {
	for _, v := range tp.Vars() {
		if bound[v] {
			return true
		}
	}
	return false
}

// statsCtx carries the global graph statistics plus a lazily filled
// per-predicate cache, so each constant predicate of a pattern is looked up
// in its POS shard at most once per planning call.
type statsCtx struct {
	g      rdf.Source
	global rdf.Stats
	pred   map[rdf.Term]rdf.PredStats
	top    map[rdf.Term][]rdf.ObjectCount
}

func newStatsCtx(g rdf.Source) *statsCtx {
	return &statsCtx{g: g, global: g.Stats()}
}

func (st *statsCtx) predStats(p rdf.Term) (rdf.PredStats, bool) {
	if ps, ok := st.pred[p]; ok {
		return ps, ps.Triples > 0
	}
	ps, ok := st.g.PredStats(p)
	if st.pred == nil {
		st.pred = make(map[rdf.Term]rdf.PredStats, 4)
	}
	st.pred[p] = ps
	return ps, ok
}

// predTop returns the predicate's heavy-hitter object histogram, cached
// per planning call like predStats. Sources without per-value statistics
// (anything but the store's graphs and snapshots) yield nil, which keeps
// the estimator on the uniform model.
func (st *statsCtx) predTop(p rdf.Term) []rdf.ObjectCount {
	if t, ok := st.top[p]; ok {
		return t
	}
	var t []rdf.ObjectCount
	if hg, ok := st.g.(interface{ PredTopObjects(rdf.Term) []rdf.ObjectCount }); ok {
		t = hg.PredTopObjects(p)
	}
	if st.top == nil {
		st.top = make(map[rdf.Term][]rdf.ObjectCount, 4)
	}
	st.top[p] = t
	return t
}

// effectiveDistinct converts a distinct-object count into the equivalent
// uniform-domain size implied by the predicate's heavy-hitter histogram:
// T²/Σcᵢ², the inverse Simpson index, with the unsketched tail spread
// evenly over the remaining values. Under a uniform distribution this
// equals the distinct count; under skew it shrinks, so the estimated
// per-probe fan-out T/D grows toward what probes of a bound object will
// actually see.
func effectiveDistinct(triples, distinct float64, top []rdf.ObjectCount) float64 {
	if len(top) == 0 {
		return distinct
	}
	var sumSq, covered float64
	for _, oc := range top {
		c := float64(oc.Count)
		sumSq += c * c
		covered += c
	}
	if tailVals := distinct - float64(len(top)); tailVals >= 1 {
		if tail := triples - covered; tail > 0 {
			sumSq += tail * tail / tailVals
		}
	}
	if sumSq <= 0 {
		return distinct
	}
	eff := triples * triples / sumSq
	if eff < 1 {
		eff = 1
	}
	if eff > distinct {
		eff = distinct
	}
	return eff
}

// estimateRows implements the cost model described in the package
// documentation: base is the exact index count over the pattern's
// constants, divided by the distinct-count of every variable position
// already bound. For patterns with a constant predicate the divisors are
// that predicate's own distinct subject/object counts (PredStats); the
// global distinct counts remain the fallback when the predicate is a
// variable or unknown.
func estimateRows(st *statsCtx, tp pattern.TriplePattern, base float64, bound map[string]bool) float64 {
	if base == 0 {
		return 0
	}
	div := 1.0
	sBound := tp.S.IsVar() && bound[tp.S.Var()]
	oBound := tp.O.IsVar() && bound[tp.O.Var()]
	if !tp.P.IsVar() {
		if ps, ok := st.predStats(tp.P.Term()); ok {
			if sBound && ps.DistinctSubjects > 0 {
				div *= float64(ps.DistinctSubjects)
			}
			if oBound && ps.DistinctObjects > 0 {
				// skew-aware: a bound object divides by the effective
				// distinct count the per-value histogram implies, so a
				// pattern whose objects concentrate on a few hubs is not
				// mistaken for a uniformly selective probe
				div *= effectiveDistinct(float64(ps.Triples), float64(ps.DistinctObjects), st.predTop(tp.P.Term()))
			}
			if est := base / div; est > 1 {
				return est
			}
			return 1
		}
	}
	if sBound && st.global.DistinctSubjects > 0 {
		div *= float64(st.global.DistinctSubjects)
	}
	if tp.P.IsVar() && bound[tp.P.Var()] && st.global.DistinctPredicates > 0 {
		div *= float64(st.global.DistinctPredicates)
	}
	if oBound && st.global.DistinctObjects > 0 {
		div *= float64(st.global.DistinctObjects)
	}
	if est := base / div; est > 1 {
		return est
	}
	return 1
}

// Execute computes ⟦GP⟧_D through the planner: the result is set-equivalent
// to pattern.EvalNaive with dom(µ) = var(GP) for every µ. This is the
// facade every answering strategy evaluates graph patterns through. A live
// graph is frozen first (rdf.Freeze), so the whole plan — every scan of
// every join — runs against one point-in-time snapshot: concurrent writers
// can never tear a join mid-flight, and long scans never block them.
func Execute(g rdf.Source, gp pattern.GraphPattern) []pattern.Binding {
	src := rdf.Freeze(g)
	return Drain(Plan(src, gp).Open(context.Background(), src))
}

// Ask reports whether the pattern has at least one solution, stopping at
// the first streamed row of a plan prepared by DisableFanout.
func Ask(g rdf.Source, gp pattern.GraphPattern) bool {
	src := rdf.Freeze(g)
	snap, isSnap := src.(*rdf.Snapshot)
	// negative verdicts first: an exhaustive "nothing matches" scan is the
	// expensive case, and presence under the exact epoch vector IS the
	// answer — no value to validate, no singleflight to coordinate
	var negKey string
	var negEpochs []uint64
	if nc := negAskCache.Load(); nc != nil && isSnap {
		negKey = askKey(src, gp)
		negEpochs = snap.ShardEpochs(nil)
		if nc.Hit(negKey, negEpochs) {
			return false
		}
	}
	ans := func() bool {
		if l := answerLayer.Load(); l != nil && isSnap {
			v, _, _ := l.Do(askKey(src, gp), snap.ShardEpochs(nil), func() (any, int64, error) {
				return askUncached(src, gp), 96, nil
			})
			return v.(bool)
		}
		return askUncached(src, gp)
	}()
	if !ans && negKey != "" {
		if nc := negAskCache.Load(); nc != nil {
			nc.Store(negKey, negEpochs)
		}
	}
	return ans
}

func askUncached(src rdf.Source, gp pattern.GraphPattern) bool {
	n := Plan(src, gp)
	DisableFanout(n)
	it := n.Open(context.Background(), src)
	defer it.Close()
	_, ok := it.Next()
	return ok
}

// DisableFanout prepares a plan for a consumer that stops early (ASK,
// LIMIT): it clears the parallel-scan markers so every leaf streams, since
// a fan-out scan buffers every shard's matches at Open time, which is
// exactly wrong for a query that needs a few rows. Plan returns freshly
// built nodes on every call (cached entries store join orders, not trees),
// so mutating them is safe.
func DisableFanout(n Node) {
	switch x := n.(type) {
	case *IndexScan:
		x.Fanout = 0
	case *IndexNestedLoopJoin:
		// first-row consumers stop early; accumulating a probe batch would
		// pull and probe child rows whose output is never read
		x.Batch = 1
		DisableFanout(x.Left)
	case *HashJoin:
		x.ParallelBuild = false
		DisableFanout(x.Left)
		DisableFanout(x.Right)
	case *Project:
		DisableFanout(x.Child)
	case *Distinct:
		DisableFanout(x.Child)
	case *Filter:
		DisableFanout(x.Child)
	case *Union:
		for _, c := range x.Children {
			DisableFanout(c)
		}
	}
}

// ExecuteQuery computes Q_D (certain-answer semantics: tuples containing
// blank nodes are dropped) through the planner.
func ExecuteQuery(g rdf.Source, q pattern.Query) *pattern.TupleSet {
	return executeQuery(context.Background(), rdf.Freeze(g), q, false)
}

// ExecuteQueryStar computes Q*_D (blank nodes included) through the planner.
func ExecuteQueryStar(g rdf.Source, q pattern.Query) *pattern.TupleSet {
	return executeQuery(context.Background(), rdf.Freeze(g), q, true)
}

// executeQuery serves the query through the answer cache when one is
// installed and the context cannot be canceled (cancellation truncates
// results, which must never become resident); otherwise it evaluates.
func executeQuery(ctx context.Context, g rdf.Source, q pattern.Query, star bool) *pattern.TupleSet {
	if ctx.Done() == nil {
		if out, ok := cachedExecuteQuery(g, q, star); ok {
			return out
		}
	}
	return runQuery(ctx, g, q, star)
}

func runQuery(ctx context.Context, g rdf.Source, q pattern.Query, star bool) *pattern.TupleSet {
	out := pattern.NewTupleSet()
	it := Plan(g, q.GP).Open(ctx, g)
	defer it.Close()
	for {
		mu, more := it.Next()
		if !more {
			return out
		}
		tuple := make(pattern.Tuple, len(q.Free))
		ok := true
		for i, f := range q.Free {
			t, isBound := mu[f]
			if !isBound || (!star && t.IsBlank()) {
				ok = false
				break
			}
			tuple[i] = t
		}
		if ok {
			out.Add(tuple)
		}
	}
}

// Explain renders the execution plan of a graph pattern, led by a comment
// line naming the snapshot epoch the query would execute against and, on a
// plan-cache hit, a line marking the join order as cached.
func Explain(g rdf.Source, gp pattern.GraphPattern) string {
	src := rdf.Freeze(g)
	var b strings.Builder
	writeEpoch(&b, src)
	n, cached := planWithInfo(src, gp)
	if cached {
		b.WriteString("-- plan: cached (shape hit)\n")
	}
	n.format(&b, 0)
	return b.String()
}

// writeEpoch emits the snapshot-epoch comment line of EXPLAIN output.
func writeEpoch(b *strings.Builder, src rdf.Source) {
	if snap, ok := src.(*rdf.Snapshot); ok {
		fmt.Fprintf(b, "-- snapshot: epoch %d\n", snap.Epoch())
	}
}

// ExplainQuery renders the execution plan of a graph pattern query,
// including the projection and duplicate-elimination operators. Like
// Explain, it marks cached join orders.
func ExplainQuery(g rdf.Source, q pattern.Query) string {
	src := rdf.Freeze(g)
	var b strings.Builder
	writeEpoch(&b, src)
	writeAnswerCacheStatus(&b, src, q)
	n, cached := planWithInfo(src, q.GP)
	if cached {
		b.WriteString("-- plan: cached (shape hit)\n")
	}
	wrapped := &Distinct{Child: &Project{Child: n, Cols: q.Free}}
	wrapped.format(&b, 0)
	return b.String()
}

// Format renders an already built plan (for tests and tooling).
func Format(n Node) string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

// HashJoinBindings joins two in-memory binding sets with the algebra's
// HashJoin operator, mirroring the semantics of Ω₁ ⋈ Ω₂: the build side is
// hashed on the collision-free key of the shared variables and the probe
// side streams. When either set has bindings with differing domains the
// hash key is unsound, so it delegates to pattern.Join's nested-loop
// fallback. Used by RemoteJoin, the federation mediator's join step, to
// join a step's left rows with what it fetched.
func HashJoinBindings(left, right []pattern.Binding) []pattern.Binding {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	if !pattern.UniformDomain(left) || !pattern.UniformDomain(right) {
		return pattern.Join(left, right)
	}
	j := &HashJoin{
		Left:   &Bindings{Rows: left, Label: "probe"},
		Right:  &Bindings{Rows: right, Label: "build"},
		Shared: pattern.SharedVars(left[0], right[0]),
	}
	return Drain(j.Open(context.Background(), nil))
}
