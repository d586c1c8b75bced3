package plan

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// EXPLAIN ANALYZE: Instrument rebuilds a plan with every operator wrapped
// in a statsNode, a shell whose iterators count rows and Next calls and
// accumulate wall time. After the instrumented tree executes, Format
// renders the usual EXPLAIN tree with an "(actual rows=… nexts=… time=…)"
// annotation per operator line.
//
// The counters are atomics because parallel operators (Union, the
// fan-out scan) drain different sub-iterators of one node concurrently.
// Times are inclusive: an operator's figure contains its children's, like
// the "actual time" of most databases' EXPLAIN ANALYZE. Open time counts
// too — that is where a hash join builds its table.
//
// Instrumentation changes one execution choice: ParallelBuild is cleared
// on hash joins, because the shard-parallel build scans the store directly
// and never opens the build-side child, which would leave its stats at
// zero. The sequential build is semantically identical, and with it the
// build-side child's row count is exactly the hash-table build size.

// statsNode wraps one operator of an instrumented plan.
type statsNode struct {
	inner Node
	// build, set on hash joins, is the wrapped build-side child; its row
	// count is the hash-table build size shown on the join's line.
	build *statsNode

	rows   atomic.Int64
	nexts  atomic.Int64
	wallNs atomic.Int64
}

// Instrument returns a copy of the plan with every operator wrapped in a
// stats-collecting shell. The input tree is not mutated; opened iterators
// of the copy feed the shells, and Format on the returned root renders the
// annotated tree. Hash joins of the copy build sequentially (see above).
func Instrument(n Node) Node {
	return instrument(n)
}

func instrument(n Node) *statsNode {
	switch x := n.(type) {
	case *IndexScan:
		c := *x
		return &statsNode{inner: &c}
	case *IndexNestedLoopJoin:
		return &statsNode{inner: &IndexNestedLoopJoin{Left: instrument(x.Left), TP: x.TP, Batch: x.Batch, Est: x.Est}}
	case *HashJoin:
		right := instrument(x.Right)
		return &statsNode{
			inner: &HashJoin{Left: instrument(x.Left), Right: right, Shared: x.Shared, Optional: x.Optional},
			build: right,
		}
	case *RemoteJoin:
		return &statsNode{inner: &RemoteJoin{
			Left: instrument(x.Left), Right: x.Right, Shared: x.Shared,
			rstats: &statsNode{inner: x.Right},
		}}
	case *Project:
		return &statsNode{inner: &Project{Child: instrument(x.Child), Cols: x.Cols, As: x.As}}
	case *Distinct:
		return &statsNode{inner: &Distinct{Child: instrument(x.Child)}}
	case *Filter:
		return &statsNode{inner: &Filter{Child: instrument(x.Child), Pred: x.Pred, Label: x.Label}}
	case *Extend:
		return &statsNode{inner: &Extend{Child: instrument(x.Child), Bound: x.Bound}}
	case *Union:
		children := make([]Node, len(x.Children))
		for i, c := range x.Children {
			children[i] = instrument(c)
		}
		return &statsNode{inner: &Union{Children: children, Stream: x.Stream}}
	default:
		// leaves with no Node children (Bindings, Unit, RemoteScan) and any
		// future operator: wrap as-is
		return &statsNode{inner: n}
	}
}

func (s *statsNode) Vars() []string { return s.inner.Vars() }

func (s *statsNode) Open(ctx context.Context, src rdf.Source) Iterator {
	start := time.Now()
	it := s.inner.Open(ctx, src)
	s.wallNs.Add(time.Since(start).Nanoseconds())
	return &statsIter{inner: it, n: s}
}

type statsIter struct {
	inner Iterator
	n     *statsNode
}

func (it *statsIter) Next() (pattern.Binding, bool) {
	start := time.Now()
	mu, ok := it.inner.Next()
	it.n.wallNs.Add(time.Since(start).Nanoseconds())
	it.n.nexts.Add(1)
	if ok {
		it.n.rows.Add(1)
	}
	return mu, ok
}

func (it *statsIter) Close() { it.inner.Close() }

// Rows returns the number of rows the node has emitted across all opens.
func (s *statsNode) Rows() int64 { return s.rows.Load() }

func (s *statsNode) format(b *strings.Builder, depth int) {
	// Render the inner operator, annotate its own (first) line, and let the
	// children — statsNodes themselves — annotate theirs recursively.
	var inner strings.Builder
	s.inner.format(&inner, depth)
	first, rest, _ := strings.Cut(inner.String(), "\n")
	b.WriteString(first)
	fmt.Fprintf(b, " (actual rows=%d nexts=%d time=%s", s.rows.Load(), s.nexts.Load(), fmtAnalyzeTime(s.wallNs.Load()))
	if s.build != nil {
		fmt.Fprintf(b, " build=%d", s.build.rows.Load())
	}
	b.WriteString(")\n")
	b.WriteString(rest)
}

// fmtAnalyzeTime renders an inclusive wall time compactly (µs below 1ms).
func fmtAnalyzeTime(ns int64) string {
	d := time.Duration(ns)
	if d < time.Millisecond {
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// ExplainAnalyzeNode instruments an arbitrary plan root, drains it under
// ctx against src, and renders the annotated tree (with the snapshot epoch
// header when src is non-nil). Callers that assemble their own tree shapes
// — a rewriting with bound answer variables, the federation mediator — use
// this instead of the query-level entry points.
func ExplainAnalyzeNode(ctx context.Context, src rdf.Source, root Node) (string, int, error) {
	var b strings.Builder
	if src != nil {
		writeEpoch(&b, src)
	}
	inst := instrument(root)
	rows := len(Drain(inst.Open(ctx, src)))
	inst.format(&b, 0)
	return b.String(), rows, ctx.Err()
}

// certainFilter wraps a plan body in the σ that Q_D semantics applies
// before projection: every free variable bound, no blank nodes (labelled
// nulls are not certain answers).
func certainFilter(body Node, free []string) Node {
	return &Filter{
		Child: body,
		Pred: func(mu pattern.Binding) bool {
			for _, f := range free {
				t, ok := mu[f]
				if !ok || t.IsBlank() {
					return false
				}
			}
			return true
		},
		Label: "certain",
	}
}

// certainPlan is QueryPlan with the certain-answer σ made explicit, so the
// root row count of an analyzed tree equals the query's answer cardinality.
func certainPlan(g rdf.Source, q pattern.Query) Node {
	return &Distinct{Child: &Project{Child: certainFilter(Plan(g, q.GP), q.Free), Cols: q.Free}}
}

// ExplainAnalyzeQuery executes the certain-answer plan of q over a snapshot
// of g under ctx and renders the annotated operator tree. The returned row
// count is the root operator's output — the query's answer cardinality.
// On cancellation the partial tree is still rendered and ctx.Err() returned.
func ExplainAnalyzeQuery(ctx context.Context, g rdf.Source, q pattern.Query) (string, int, error) {
	src := rdf.Freeze(g)
	var b strings.Builder
	writeEpoch(&b, src)
	writeAnswerCacheStatus(&b, src, q)
	n, cached := planWithInfo(src, q.GP)
	if cached {
		b.WriteString("-- plan: cached (shape hit)\n")
	}
	root := instrument(&Distinct{Child: &Project{Child: certainFilter(n, q.Free), Cols: q.Free}})
	rows := len(Drain(root.Open(ctx, src)))
	root.format(&b, 0)
	return b.String(), rows, ctx.Err()
}
