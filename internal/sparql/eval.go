package sparql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
)

// Result holds the outcome of evaluating a query.
type Result struct {
	// Form echoes the query form.
	Form Form
	// Vars is the projection (SELECT only), in order.
	Vars []string
	// Rows holds one tuple per solution, aligned with Vars (SELECT only).
	Rows []pattern.Tuple
	// True is the ASK verdict (ASK only).
	True bool
}

// Eval evaluates the query over a graph under the fragment's semantics:
// BGPs per Definition 1, joins of sub-patterns, OPTIONAL as a left outer
// join of compatible mappings, UNION as bag union, FILTER as selection,
// SELECT as projection (bag; set under DISTINCT), rows sorted. The whole
// query is one operator tree (see Plan) run against one point-in-time
// snapshot of the source, so concurrent bulk loads can neither stall nor
// tear it.
func (q *Query) Eval(g rdf.Source) *Result {
	res, _ := q.EvalCtx(context.Background(), g)
	return res
}

// EvalCtx is Eval under a request context: plan iterators poll ctx and stop
// producing tuples once the deadline passes or the caller cancels. A
// canceled evaluation returns the (possibly truncated) result built so far
// together with ctx.Err(), so servers can drop it and report the timeout.
func (q *Query) EvalCtx(ctx context.Context, g rdf.Source) (*Result, error) {
	g = rdf.Freeze(g)
	if res, err, ok := q.evalCached(ctx, g); ok {
		return res, err
	}
	return q.evalUncached(ctx, g)
}

func (q *Query) evalUncached(ctx context.Context, g rdf.Source) (*Result, error) {
	if q.Form == FormAsk {
		return &Result{Form: FormAsk, True: q.ask(ctx, g)}, ctx.Err()
	}
	res := q.assemble(plan.Drain(q.Plan(g, false).Open(ctx, g)))
	return res, ctx.Err()
}

// ask opens the query's tree prepared for early stop (streaming unions,
// plan.DisableFanout), takes its first row and closes it: the first row
// decides an ASK.
func (q *Query) ask(ctx context.Context, g rdf.Source) bool {
	n := q.Plan(g, true)
	plan.DisableFanout(n)
	it := n.Open(ctx, g)
	defer it.Close()
	_, ok := it.Next()
	return ok
}

func (q *Query) assemble(sols []pattern.Binding) *Result {
	if q.Form == FormAsk {
		return &Result{Form: FormAsk, True: len(sols) > 0}
	}
	vars := q.ProjectedVars()
	res := &Result{Form: FormSelect, Vars: vars}
	seen := make(map[string]struct{})
	for _, mu := range sols {
		row := make(pattern.Tuple, len(vars))
		for i, v := range vars {
			row[i] = mu[v] // unbound stays the zero Term
		}
		if q.Distinct {
			k := row.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Compare(res.Rows[j]) < 0 })
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res
}

// Plan lowers the query's pattern to one operator tree over g, one
// relational operator per construct: a group's BGP through the planner,
// each further child joined by a HashJoin with the child on the build
// side (a left outer HashJoin for OPTIONAL), UNION as a parallel Union,
// VALUES as InlineBindings, FILTER as σ over the group. stream selects
// the Union form: a consumer that may stop early (EvalStream) takes rows
// as the branches produce them; one that drains everything (EvalCtx)
// takes the deterministic branch-order replay.
func (q *Query) Plan(g rdf.Source, stream bool) plan.Node {
	n, _ := lower(g, q.Where, stream)
	return n
}

// lower returns e's operator tree and the sorted variables that every one
// of its rows binds. Only those may key a hash join: hashing on a variable
// some row leaves unbound would split compatible rows into different
// buckets, so every other common variable is left to the join's
// compatibility test.
func lower(g rdf.Source, e Expr, stream bool) (plan.Node, []string) {
	switch x := e.(type) {
	case *Group:
		return lowerGroup(g, x, stream)
	case *Union:
		children := make([]plan.Node, len(x.Alternatives))
		var certain []string
		for i, alt := range x.Alternatives {
			var vars []string
			children[i], vars = lower(g, alt, stream)
			if i == 0 {
				certain = vars
			} else {
				certain = intersect(certain, vars)
			}
		}
		return &plan.Union{Children: children, Stream: stream}, certain
	case *Optional:
		// a bare OPTIONAL left-joins the empty solution
		inner, _ := lower(g, x.Inner, stream)
		return &plan.HashJoin{Left: plan.Unit{}, Right: inner, Optional: true}, nil
	default:
		v := e.(*Values)
		rows := v.Bindings()
		var certain []string
		for _, name := range slices.Compact(v.Vars()) {
			if !slices.ContainsFunc(rows, func(mu pattern.Binding) bool { _, ok := mu[name]; return !ok }) {
				certain = append(certain, name) // no row leaves it UNDEF
			}
		}
		return &plan.InlineBindings{Names: v.Names, Rows: rows}, certain
	}
}

// lowerGroup starts from the group's BGP — or, without one, from its first
// child unless that is an OPTIONAL, or from the empty solution — and joins
// the remaining children in order, as SPARQL's group semantics does.
func lowerGroup(g rdf.Source, grp *Group, stream bool) (plan.Node, []string) {
	var root plan.Node = plan.Unit{}
	var certain []string
	children := grp.Children
	if len(grp.BGP) > 0 {
		patternScans.Add(1)
		root, certain = plan.Plan(g, grp.BGP), grp.BGP.Vars()
	} else if len(children) > 0 {
		if _, opt := children[0].(*Optional); !opt {
			root, certain = lower(g, children[0], stream)
			children = children[1:]
		}
	}
	for _, child := range children {
		opt, isOpt := child.(*Optional)
		if isOpt {
			child = opt.Inner
		}
		right, vars := lower(g, child, stream)
		root = &plan.HashJoin{Left: root, Right: right, Shared: intersect(certain, vars), Optional: isOpt}
		if !isOpt {
			certain = append(certain, vars...)
			slices.Sort(certain)
			certain = slices.Compact(certain)
		}
	}
	if len(grp.Filters) > 0 {
		filters := grp.Filters
		root = &plan.Filter{
			Child: root,
			Pred: func(mu pattern.Binding) bool {
				for _, f := range filters {
					if !f.Holds(mu) {
						return false
					}
				}
				return true
			},
			Label: "FILTER",
		}
	}
	return root, certain
}

// intersect returns the elements of sorted a that sorted b also holds.
func intersect(a, b []string) []string {
	var out []string
	for _, v := range a {
		if _, found := slices.BinarySearch(b, v); found {
			out = append(out, v)
		}
	}
	return out
}

// patternScans counts basic-graph-pattern evaluations — one per Group BGP
// lowered into a plan, whatever the transport. The federation tests pin
// the VALUES probe rendering with it: a probe batch of N bindings is one
// pattern scan, where the legacy UNION-of-filtered-copies rendering is N.
var patternScans atomic.Int64

// PatternScans reports the process-wide number of BGP evaluations.
func PatternScans() int64 { return patternScans.Load() }

// Format renders a result table using the namespace table for compact IRIs.
// SELECT results are printed one row per line with tab-separated columns;
// ASK results print "true" or "false".
func (r *Result) Format(ns *rdf.Namespaces) string {
	if ns == nil {
		ns = rdf.NewNamespaces()
	}
	if r.Form == FormAsk {
		if r.True {
			return "true"
		}
		return "false"
	}
	var b strings.Builder
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, t := range row {
			if t.IsZero() {
				parts[i] = "UNDEF"
				continue
			}
			parts[i] = ns.ShortenTerm(t)
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// TupleSet returns the distinct SELECT rows as a tuple set.
func (r *Result) TupleSet() *pattern.TupleSet {
	s := pattern.NewTupleSet()
	for _, row := range r.Rows {
		s.Add(row)
	}
	return s
}

// Len returns the number of rows (SELECT) or 1/0 for true/false (ASK).
func (r *Result) Len() int {
	if r.Form == FormAsk {
		if r.True {
			return 1
		}
		return 0
	}
	return len(r.Rows)
}

// ToUCQ decomposes the query into a union of conjunctive graph-pattern
// queries, the inverse of FromUCQ. It fails on filters or unions nested
// below the top level in ways that do not flatten to a UCQ.
func (q *Query) ToUCQ() ([]pattern.Query, error) {
	vars := q.ProjectedVars()
	bodies, err := flattenExpr(q.Where)
	if err != nil {
		return nil, err
	}
	out := make([]pattern.Query, 0, len(bodies))
	for _, gp := range bodies {
		// a disjunct must bind every projected variable
		pq, err := pattern.NewQuery(vars, gp)
		if err != nil {
			return nil, fmt.Errorf("sparql: disjunct %q: %w", gp.String(), err)
		}
		out = append(out, pq)
	}
	return out, nil
}

// flattenExpr converts an expression tree to disjunctive normal form as a
// list of conjunctive bodies.
func flattenExpr(e Expr) ([]pattern.GraphPattern, error) {
	switch x := e.(type) {
	case *Group:
		if len(x.Filters) > 0 {
			return nil, fmt.Errorf("sparql: FILTER is outside the UCQ fragment")
		}
		acc := []pattern.GraphPattern{append(pattern.GraphPattern(nil), x.BGP...)}
		for _, child := range x.Children {
			sub, err := flattenExpr(child)
			if err != nil {
				return nil, err
			}
			// distribute: acc × sub
			next := make([]pattern.GraphPattern, 0, len(acc)*len(sub))
			for _, a := range acc {
				for _, s := range sub {
					merged := append(append(pattern.GraphPattern(nil), a...), s...)
					next = append(next, merged)
				}
			}
			acc = next
		}
		return acc, nil
	case *Union:
		var out []pattern.GraphPattern
		for _, alt := range x.Alternatives {
			sub, err := flattenExpr(alt)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	case *Optional:
		return nil, fmt.Errorf("sparql: OPTIONAL is outside the UCQ fragment")
	case *Values:
		return nil, fmt.Errorf("sparql: VALUES is outside the UCQ fragment")
	default:
		return nil, fmt.Errorf("sparql: unsupported expression type %T", e)
	}
}
