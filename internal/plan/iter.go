package plan

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// Iterator streams solution mappings. Next returns the next binding, or
// false once the stream is exhausted. Close releases resources held by an
// iterator abandoned before exhaustion; it is idempotent and must be called
// (directly or via Drain) on every opened iterator.
type Iterator interface {
	Next() (pattern.Binding, bool)
	Close()
}

// Node is a relational-algebra operator at plan time. Opening a node yields
// a fresh iterator; a node may be opened many times. Nodes open against an
// rdf.Source — a live graph or, on the Execute facade's path, the
// per-query snapshot everything runs against.
//
// The context carries the request's deadline/cancellation: operators check
// it every cancelCheckEvery rows (tight loops would otherwise run a large
// scan to completion after the caller has gone away), so a canceled
// iterator stops producing tuples promptly but not instantly. Cancellation
// truncates the stream — Next simply returns false — and callers that need
// to distinguish exhaustion from abandonment check ctx.Err() afterwards,
// as sparql's EvalCtx does.
type Node interface {
	Open(ctx context.Context, src rdf.Source) Iterator
	// Vars returns the sorted variable names the operator's rows bind.
	Vars() []string
	format(b *strings.Builder, depth int)
}

// cancelCheckEvery is the row interval at which streaming operators poll
// the context: a power of two so the check compiles to a mask test.
const cancelCheckEvery = 256

// ctxDone reports whether ctx is canceled, without blocking. A nil context
// (callers that predate cancellation) never is.
func ctxDone(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// Drain exhausts an iterator into a slice and closes it.
func Drain(it Iterator) []pattern.Binding {
	defer it.Close()
	var out []pattern.Binding
	for {
		mu, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, mu)
	}
}

func matchArgs(tp pattern.TriplePattern) (sp, pp, op *rdf.Term) {
	if !tp.S.IsVar() {
		t := tp.S.Term()
		sp = &t
	}
	if !tp.P.IsVar() {
		t := tp.P.Term()
		pp = &t
	}
	if !tp.O.IsVar() {
		t := tp.O.Term()
		op = &t
	}
	return sp, pp, op
}

// appendMatches appends the bindings of one (possibly instantiated) triple
// pattern to dst. This is the per-row micro-buffer of the index nested-loop
// join: it holds the matches of a single instantiated pattern, never a full
// intermediate Ω.
func appendMatches(ctx context.Context, dst []pattern.Binding, g rdf.Source, tp pattern.TriplePattern) []pattern.Binding {
	sp, pp, op := matchArgs(tp)
	n := 0
	g.Match(sp, pp, op, func(t rdf.Triple) bool {
		if n&(cancelCheckEvery-1) == 0 && n > 0 && ctxDone(ctx) {
			return false
		}
		n++
		if mu, ok := pattern.BindTriple(tp, t); ok {
			dst = append(dst, mu)
		}
		return true
	})
	return dst
}

// ---------------------------------------------------------------- IndexScan

// IndexScan is the leaf access path: one triple pattern matched against the
// best of the graph's SPO/POS/OSP indexes, streamed without materialising
// the extension. When the planner marks Fanout > 0 the pattern's index
// partition spans every shard (object-only or unconstrained scans) and the
// scan drains the shards concurrently instead, merging buffered per-shard
// results in shard order — deterministic up to the store's (unspecified)
// within-shard iteration order, exactly like the sequential scan.
type IndexScan struct {
	TP pattern.TriplePattern
	// Est is the planner's cardinality estimate, kept for EXPLAIN output.
	Est float64
	// Fanout is the shard count to scan in parallel; 0 streams
	// sequentially through rdf.Graph.Match.
	Fanout int
}

func (s *IndexScan) Vars() []string { return s.TP.Vars() }

func (s *IndexScan) Open(ctx context.Context, g rdf.Source) Iterator {
	if s.Fanout > 1 && g.ShardCount() > 1 {
		return s.openFanout(ctx, g)
	}
	seq := func(yield func(pattern.Binding) bool) {
		sp, pp, op := matchArgs(s.TP)
		n := 0
		g.Match(sp, pp, op, func(t rdf.Triple) bool {
			if n&(cancelCheckEvery-1) == 0 && ctxDone(ctx) {
				return false
			}
			n++
			mu, ok := pattern.BindTriple(s.TP, t)
			if !ok {
				return true
			}
			return yield(mu)
		})
	}
	next, stop := iter.Pull(iter.Seq[pattern.Binding](seq))
	return &scanIter{next: next, stop: stop}
}

// openFanout drains every shard's partition of the scan concurrently
// (bounded by Fanout, the parallel-union worker machinery underneath) and
// replays the buffers in shard order.
func (s *IndexScan) openFanout(ctx context.Context, g rdf.Source) Iterator {
	n := g.ShardCount()
	bufs := make([][]pattern.Binding, n)
	sp, pp, op := matchArgs(s.TP)
	Fanout(n, func(i int) {
		rows := 0
		g.MatchShard(i, sp, pp, op, func(t rdf.Triple) bool {
			if rows&(cancelCheckEvery-1) == 0 && ctxDone(ctx) {
				return false
			}
			rows++
			if mu, ok := pattern.BindTriple(s.TP, t); ok {
				bufs[i] = append(bufs[i], mu)
			}
			return true
		})
	})
	var rows []pattern.Binding
	for _, b := range bufs {
		rows = append(rows, b...)
	}
	return &sliceIter{rows: rows}
}

type scanIter struct {
	next func() (pattern.Binding, bool)
	stop func()
}

func (it *scanIter) Next() (pattern.Binding, bool) { return it.next() }
func (it *scanIter) Close()                        { it.stop() }

func (s *IndexScan) format(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "IndexScan[%s] idx=%s est=%s", s.TP, accessPath(s.TP, nil), fmtEst(s.Est))
	if s.Fanout > 1 {
		fmt.Fprintf(b, " fanout=%d", s.Fanout)
	}
	b.WriteByte('\n')
}

// ---------------------------------------------------- IndexNestedLoopJoin

// IndexNestedLoopJoin joins a child stream with one triple pattern: each
// child binding instantiates the pattern's bound variables and probes the
// graph index, emitting the child binding extended by each match. With
// Batch > 1 the iterator accumulates up to Batch child rows per round and
// probes the index once per distinct instantiated pattern, so child rows
// that bind the join variables to the same terms share one probe (output
// order is unchanged: rows still emit in child order).
type IndexNestedLoopJoin struct {
	Left Node
	TP   pattern.TriplePattern
	// Batch is the probe batch size; 0 or 1 probes per child row (Ask
	// plans disable batching — they stop at the first row).
	Batch int
	// Est is the planner's per-plan output estimate, kept for EXPLAIN.
	Est float64

	// probes counts index probes issued by this node's iterators; EXPLAIN
	// ANALYZE shows it next to the actual row counts.
	probes atomic.Int64
}

func (j *IndexNestedLoopJoin) Vars() []string {
	return unionVars(j.Left.Vars(), j.TP.Vars())
}

func (j *IndexNestedLoopJoin) Open(ctx context.Context, g rdf.Source) Iterator {
	it := &inljIter{ctx: ctx, g: g, left: j.Left.Open(ctx, g), tp: j.TP, batch: j.Batch, probes: &j.probes}
	if it.batch > 1 {
		it.matches = make(map[string][]pattern.Binding, it.batch)
	}
	return it
}

type inljIter struct {
	ctx    context.Context
	g      rdf.Source
	left   Iterator
	tp     pattern.TriplePattern
	batch  int
	probes *atomic.Int64

	// per-row state (batch <= 1)
	cur pattern.Binding
	buf []pattern.Binding
	i   int

	// batched state (batch > 1): child rows in arrival order, each row's
	// probe key, and the per-key match lists shared by equal-key rows
	rows    []pattern.Binding
	keys    []string
	matches map[string][]pattern.Binding
	ri, mi  int
	done    bool
}

func (it *inljIter) Next() (pattern.Binding, bool) {
	if it.batch > 1 {
		return it.nextBatched()
	}
	for {
		if it.i < len(it.buf) {
			mu := pattern.Union(it.cur, it.buf[it.i])
			it.i++
			return mu, true
		}
		lmu, ok := it.left.Next()
		if !ok {
			return nil, false
		}
		it.cur = lmu
		it.probes.Add(1)
		it.buf = appendMatches(it.ctx, it.buf[:0], it.g, it.tp.Apply(lmu))
		it.i = 0
	}
}

func (it *inljIter) nextBatched() (pattern.Binding, bool) {
	for {
		for it.ri < len(it.rows) {
			ms := it.matches[it.keys[it.ri]]
			if it.mi < len(ms) {
				mu := pattern.Union(it.rows[it.ri], ms[it.mi])
				it.mi++
				return mu, true
			}
			it.ri++
			it.mi = 0
		}
		if it.done {
			return nil, false
		}
		it.fill()
	}
}

// fill accumulates up to batch child rows and probes the index once per
// distinct instantiated pattern. Deduplication is per round: the match
// lists are released between rounds so only one batch is buffered at a
// time, like the per-row path buffers only one extension.
func (it *inljIter) fill() {
	it.rows = it.rows[:0]
	it.keys = it.keys[:0]
	it.ri, it.mi = 0, 0
	for k := range it.matches {
		delete(it.matches, k)
	}
	for len(it.rows) < it.batch {
		lmu, ok := it.left.Next()
		if !ok {
			it.done = true
			return
		}
		inst := it.tp.Apply(lmu)
		key := inst.String()
		if _, seen := it.matches[key]; !seen {
			it.probes.Add(1)
			it.matches[key] = appendMatches(it.ctx, nil, it.g, inst)
		}
		it.rows = append(it.rows, lmu)
		it.keys = append(it.keys, key)
	}
}

func (it *inljIter) Close() { it.left.Close() }

func (j *IndexNestedLoopJoin) format(b *strings.Builder, depth int) {
	indent(b, depth)
	bound := make(map[string]bool)
	for _, v := range j.Left.Vars() {
		bound[v] = true
	}
	fmt.Fprintf(b, "IndexNestedLoopJoin[%s] idx=%s est=%s", j.TP, accessPath(j.TP, bound), fmtEst(j.Est))
	if p := j.probes.Load(); p > 0 {
		k := j.Batch
		if k < 1 {
			k = 1
		}
		fmt.Fprintf(b, " batch=%d probes=%d", k, p)
	}
	b.WriteByte('\n')
	j.Left.format(b, depth+1)
}

// ------------------------------------------------------------------ HashJoin

// HashJoin joins two streams on their shared variables: the right (build)
// side is drained into a hash table keyed by the collision-free
// pattern.BindingKey, then the left (probe) side streams. With no shared
// variables it degenerates to a buffered cross product, which is why the
// planner picks it over an index nested loop when the next pattern is
// disconnected from the rows produced so far.
type HashJoin struct {
	Left, Right Node
	// Shared is the sorted list of join variables (empty: cross product).
	Shared []string
	// ParallelBuild marks a build side that is a cross-shard fan-out scan:
	// instead of draining one merged stream, Open builds per-shard hash
	// tables concurrently and merges them once, in shard order. Set by the
	// planner when the build side is an IndexScan with Fanout > 1.
	ParallelBuild bool
	// Optional makes the join a left outer join (SPARQL's OPTIONAL): a
	// probe row with no compatible build row is emitted unextended.
	Optional bool
}

func (j *HashJoin) Vars() []string {
	return unionVars(j.Left.Vars(), j.Right.Vars())
}

func (j *HashJoin) Open(ctx context.Context, g rdf.Source) Iterator {
	var table map[string][]pattern.Binding
	if rs, ok := j.Right.(*IndexScan); ok && j.ParallelBuild && rs.Fanout > 1 && g != nil && g.ShardCount() > 1 {
		table = j.buildParallel(ctx, g, rs)
	} else {
		table = make(map[string][]pattern.Binding)
		rit := j.Right.Open(ctx, g)
		n := 0
		for {
			if n&(cancelCheckEvery-1) == 0 && ctxDone(ctx) {
				break
			}
			n++
			mu, ok := rit.Next()
			if !ok {
				break
			}
			k := pattern.BindingKey(mu, j.Shared)
			table[k] = append(table[k], mu)
		}
		rit.Close()
	}
	return &hashJoinIter{left: j.Left.Open(ctx, g), table: table, shared: j.Shared, optional: j.Optional}
}

// buildParallel drains the build-side scan's shard partitions concurrently,
// each worker hashing into a private table, and merges the per-shard tables
// once. Appending bucket slices in shard order yields exactly the bucket
// contents the sequential fan-out scan would produce.
func (j *HashJoin) buildParallel(ctx context.Context, g rdf.Source, rs *IndexScan) map[string][]pattern.Binding {
	n := g.ShardCount()
	parts := make([]map[string][]pattern.Binding, n)
	sp, pp, op := matchArgs(rs.TP)
	Fanout(n, func(i int) {
		m := make(map[string][]pattern.Binding)
		rows := 0
		g.MatchShard(i, sp, pp, op, func(t rdf.Triple) bool {
			if rows&(cancelCheckEvery-1) == 0 && ctxDone(ctx) {
				return false
			}
			rows++
			if mu, ok := pattern.BindTriple(rs.TP, t); ok {
				k := pattern.BindingKey(mu, j.Shared)
				m[k] = append(m[k], mu)
			}
			return true
		})
		parts[i] = m
	})
	table := parts[0]
	for _, part := range parts[1:] {
		for k, rows := range part {
			table[k] = append(table[k], rows...)
		}
	}
	return table
}

type hashJoinIter struct {
	left     Iterator
	table    map[string][]pattern.Binding
	shared   []string
	optional bool
	cur      pattern.Binding
	bucket   []pattern.Binding
	i        int
	// unmatched: cur is a left outer join's probe row that no build row
	// has extended yet
	unmatched bool
}

func (it *hashJoinIter) Next() (pattern.Binding, bool) {
	for {
		for it.i < len(it.bucket) {
			b := it.bucket[it.i]
			it.i++
			if pattern.Compatible(it.cur, b) {
				it.unmatched = false
				return pattern.Union(it.cur, b), true
			}
		}
		if it.unmatched {
			it.unmatched = false
			return it.cur, true
		}
		lmu, ok := it.left.Next()
		if !ok {
			return nil, false
		}
		it.cur = lmu
		it.bucket = it.table[pattern.BindingKey(lmu, it.shared)]
		it.i = 0
		it.unmatched = it.optional
	}
}

func (it *hashJoinIter) Close() { it.left.Close() }

func (j *HashJoin) format(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "HashJoin[on %s]", joinLabel(j.Shared))
	if j.Optional {
		b.WriteString(" optional")
	}
	if j.ParallelBuild {
		b.WriteString(" build=parallel")
	}
	b.WriteByte('\n')
	j.Left.format(b, depth+1)
	j.Right.format(b, depth+1)
}

// ------------------------------------------------------------------- Project

// Project restricts each binding to the listed variables (π). As, when
// set, names the output columns position for position with Cols, so two
// columns may read one variable (a rewriting that merged answer variables)
// and a column may be renamed (ρ).
type Project struct {
	Child Node
	Cols  []string
	As    []string
}

// out returns the output column names.
func (p *Project) out() []string {
	if p.As != nil {
		return p.As
	}
	return p.Cols
}

func (p *Project) Vars() []string {
	out := append([]string(nil), p.out()...)
	sort.Strings(out)
	return slices.Compact(out)
}

func (p *Project) Open(ctx context.Context, g rdf.Source) Iterator {
	as := p.out()
	// a row binding exactly the columns, when no column is renamed or
	// read twice, is its own projection
	share := slices.Equal(p.Cols, as) && !repeats(p.Cols)
	return &projectIter{child: p.Child.Open(ctx, g), cols: p.Cols, as: as, share: share}
}

type projectIter struct {
	child    Iterator
	cols, as []string
	share    bool
}

func (it *projectIter) Next() (pattern.Binding, bool) {
	mu, ok := it.child.Next()
	if !ok {
		return nil, false
	}
	if it.share && len(mu) == len(it.cols) && bindsAll(mu, it.cols) {
		return mu, true // rows are never mutated: share it
	}
	out := make(pattern.Binding, len(it.cols))
	for i, c := range it.cols {
		if t, bound := mu[c]; bound {
			out[it.as[i]] = t
		}
	}
	return out, true
}

// repeats reports whether some name occurs twice in vars.
func repeats(vars []string) bool {
	for i, v := range vars {
		if slices.Contains(vars[:i], v) {
			return true
		}
	}
	return false
}

// bindsAll reports whether mu binds every one of vars.
func bindsAll(mu pattern.Binding, vars []string) bool {
	for _, v := range vars {
		if _, bound := mu[v]; !bound {
			return false
		}
	}
	return true
}

func (it *projectIter) Close() { it.child.Close() }

func (p *Project) format(b *strings.Builder, depth int) {
	indent(b, depth)
	as := p.out()
	cols := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = "?" + c
		if as[i] != c {
			cols[i] += " AS ?" + as[i]
		}
	}
	fmt.Fprintf(b, "Project[%s]\n", strings.Join(cols, " "))
	p.Child.format(b, depth+1)
}

// ------------------------------------------------------------------ Distinct

// Distinct removes duplicate bindings (δ). The key covers variable names
// and values, each length-prefixed, so bindings with different domains
// cannot collide.
type Distinct struct {
	Child Node
}

func (d *Distinct) Vars() []string { return d.Child.Vars() }

func (d *Distinct) Open(ctx context.Context, g rdf.Source) Iterator {
	return &distinctIter{child: d.Child.Open(ctx, g), seen: make(map[string]struct{})}
}

type distinctIter struct {
	child Iterator
	seen  map[string]struct{}
}

func (it *distinctIter) Next() (pattern.Binding, bool) {
	for {
		mu, ok := it.child.Next()
		if !ok {
			return nil, false
		}
		k := pattern.DomainKey(mu)
		if _, dup := it.seen[k]; dup {
			continue
		}
		it.seen[k] = struct{}{}
		return mu, true
	}
}

func (it *distinctIter) Close() { it.child.Close() }

func (d *Distinct) format(b *strings.Builder, depth int) {
	indent(b, depth)
	b.WriteString("Distinct\n")
	d.Child.format(b, depth+1)
}

// -------------------------------------------------------------------- Filter

// Filter keeps the bindings satisfying a predicate (σ). Label names the
// condition in EXPLAIN output.
type Filter struct {
	Child Node
	Pred  func(pattern.Binding) bool
	Label string
}

func (f *Filter) Vars() []string { return f.Child.Vars() }

func (f *Filter) Open(ctx context.Context, g rdf.Source) Iterator {
	return &filterIter{child: f.Child.Open(ctx, g), pred: f.Pred}
}

type filterIter struct {
	child Iterator
	pred  func(pattern.Binding) bool
}

func (it *filterIter) Next() (pattern.Binding, bool) {
	for {
		mu, ok := it.child.Next()
		if !ok {
			return nil, false
		}
		if it.pred(mu) {
			return mu, true
		}
	}
}

func (it *filterIter) Close() { it.child.Close() }

func (f *Filter) format(b *strings.Builder, depth int) {
	indent(b, depth)
	label := f.Label
	if label == "" {
		label = "pred"
	}
	fmt.Fprintf(b, "Filter[%s]\n", label)
	f.Child.format(b, depth+1)
}

// -------------------------------------------------------------------- Extend

// Extend adds fixed variable=term entries to every row of its child — the
// plan form of a rewriting disjunct whose answer variables were bound to
// constants during rewriting. Rows are copied, never mutated: children may
// stream shared (cached) bindings.
type Extend struct {
	Child Node
	Bound map[string]rdf.Term
}

func (e *Extend) Vars() []string {
	out := append([]string(nil), e.Child.Vars()...)
	for v := range e.Bound {
		out = append(out, v)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

func (e *Extend) Open(ctx context.Context, g rdf.Source) Iterator {
	return &extendIter{child: e.Child.Open(ctx, g), bound: e.Bound}
}

type extendIter struct {
	child Iterator
	bound map[string]rdf.Term
}

func (it *extendIter) Next() (pattern.Binding, bool) {
	mu, ok := it.child.Next()
	if !ok {
		return nil, false
	}
	out := make(pattern.Binding, len(mu)+len(it.bound))
	for v, t := range mu {
		out[v] = t
	}
	for v, t := range it.bound {
		out[v] = t
	}
	return out, true
}

func (it *extendIter) Close() { it.child.Close() }

func (e *Extend) format(b *strings.Builder, depth int) {
	indent(b, depth)
	parts := make([]string, 0, len(e.Bound))
	for v, t := range e.Bound {
		parts = append(parts, "?"+v+"="+t.String())
	}
	sort.Strings(parts)
	fmt.Fprintf(b, "Extend[%s]\n", strings.Join(parts, " "))
	e.Child.format(b, depth+1)
}

// ------------------------------------------------------------------ Bindings

// Bindings is a leaf over an in-memory relation, letting already
// materialised solution sets (remote extensions, UNION arms) participate in
// the algebra.
type Bindings struct {
	Rows  []pattern.Binding
	Label string
}

func (n *Bindings) Vars() []string {
	set := make(map[string]struct{})
	for _, mu := range n.Rows {
		for v := range mu {
			set[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (n *Bindings) Open(context.Context, rdf.Source) Iterator { return &sliceIter{rows: n.Rows} }

type sliceIter struct {
	rows []pattern.Binding
	i    int
}

func (it *sliceIter) Next() (pattern.Binding, bool) {
	if it.i >= len(it.rows) {
		return nil, false
	}
	mu := it.rows[it.i]
	it.i++
	return mu, true
}

func (it *sliceIter) Close() {}

func (n *Bindings) format(b *strings.Builder, depth int) {
	indent(b, depth)
	label := n.Label
	if label == "" {
		label = "mem"
	}
	fmt.Fprintf(b, "Bindings[%s] rows=%d\n", label, len(n.Rows))
}

// ---------------------------------------------------------------------- Unit

// Unit emits a single empty binding: the identity of ⋈, and the plan of the
// empty graph pattern.
type Unit struct{}

func (Unit) Vars() []string { return nil }
func (Unit) Open(context.Context, rdf.Source) Iterator {
	return &sliceIter{rows: []pattern.Binding{{}}}
}
func (Unit) format(b *strings.Builder, depth int) {
	indent(b, depth)
	b.WriteString("Unit\n")
}

// --------------------------------------------------------------------- Union

// Union concatenates the streams of its children (∪, bag semantics; wrap in
// Distinct for set semantics). It drains every child concurrently across a
// GOMAXPROCS-bounded worker pool and then replays the buffered branch
// results in child order, so output order is deterministic.
//
// The streaming form (Stream) gives up the deterministic replay order:
// children still run concurrently, but their rows are merged into the
// output as they arrive, so the first row surfaces at the speed of the
// fastest branch instead of the slowest — the shape that lets remote scans
// below the union stream end to end. Closing the iterator cancels the
// branches mid-flight.
type Union struct {
	Children []Node
	Stream   bool
}

func (u *Union) Vars() []string {
	var out []string
	for _, c := range u.Children {
		out = unionVars(out, c.Vars())
	}
	return out
}

func (u *Union) Open(ctx context.Context, g rdf.Source) Iterator {
	if u.Stream {
		ictx, cancel := context.WithCancel(ctx)
		ch := make(chan pattern.Binding)
		go func() {
			defer close(ch)
			Fanout(len(u.Children), func(i int) {
				it := u.Children[i].Open(ictx, g)
				defer it.Close()
				for {
					mu, ok := it.Next()
					if !ok {
						return
					}
					select {
					case ch <- mu:
					case <-ictx.Done():
						return
					}
				}
			})
		}()
		return &chanUnionIter{ch: ch, cancel: cancel}
	}
	bufs := make([][]pattern.Binding, len(u.Children))
	Fanout(len(u.Children), func(i int) {
		bufs[i] = Drain(u.Children[i].Open(ctx, g))
	})
	var rows []pattern.Binding
	for _, b := range bufs {
		rows = append(rows, b...)
	}
	return &sliceIter{rows: rows}
}

// chanUnionIter merges the streaming parallel union's branch rows as they
// arrive. Close cancels the branches and drains the merge channel so the
// branch workers observe the cancellation instead of blocking on a send.
type chanUnionIter struct {
	ch     <-chan pattern.Binding
	cancel context.CancelFunc
	closed bool
}

func (it *chanUnionIter) Next() (pattern.Binding, bool) {
	mu, ok := <-it.ch
	return mu, ok
}

func (it *chanUnionIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.cancel()
	go func() {
		for range it.ch {
		}
	}()
}

func (u *Union) format(b *strings.Builder, depth int) {
	indent(b, depth)
	if u.Stream {
		fmt.Fprintf(b, "Union[parallel stream branches=%d]\n", len(u.Children))
	} else {
		fmt.Fprintf(b, "Union[parallel branches=%d]\n", len(u.Children))
	}
	for _, c := range u.Children {
		c.format(b, depth+1)
	}
}

// ------------------------------------------------------------------- helpers

func unionVars(a, b []string) []string {
	set := make(map[string]struct{}, len(a)+len(b))
	for _, v := range a {
		set[v] = struct{}{}
	}
	for _, v := range b {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// joinLabel renders a join's shared variables (× for a cross product).
func joinLabel(shared []string) string {
	if len(shared) == 0 {
		return "×"
	}
	return strings.Join(shared, ",")
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func fmtEst(e float64) string {
	return strconv.FormatFloat(e, 'f', -1, 64)
}

// accessPath names the graph index a pattern probes, given which variables
// are bound upstream (nil for a leaf scan).
func accessPath(tp pattern.TriplePattern, bound map[string]bool) string {
	fixed := func(e pattern.Elem) bool {
		return !e.IsVar() || bound[e.Var()]
	}
	s, p, o := fixed(tp.S), fixed(tp.P), fixed(tp.O)
	switch {
	case s && p && o:
		return "spo(point)"
	case s && p:
		return "spo"
	case p && o:
		return "pos"
	case s && o:
		return "osp"
	case s:
		return "spo(prefix)"
	case p:
		return "pos(prefix)"
	case o:
		return "osp(prefix)"
	default:
		return "full"
	}
}
