package federation

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rewrite"
)

// PlannedQuery is a federated execution plan: the rewriting's UCQ as a
// parallel Union over per-disjunct mediator plans whose leaves are
// plan.RemoteScan operators bound to a shared fetcher. The plan is both
// renderable (Explain) and executable (open Root and drain it — the leaves
// fetch through the engine's client and shared cache; check Err afterwards,
// RemoteScan iterators have no error channel).
type PlannedQuery struct {
	// Root is the plan: Distinct over the Union of the disjunct plans.
	Root plan.Node
	// Rewriting is the UCQ the plan evaluates.
	Rewriting *rewrite.Result

	f *fetcher
}

// Err returns the first network error recorded while executing the plan.
func (p *PlannedQuery) Err() error { return p.f.Err() }

// Metrics freezes the fetch-layer counters accumulated so far.
func (p *PlannedQuery) Metrics() *Metrics { return p.f.snapshot(p.Rewriting) }

// Explain renders the federated plan, prefixed with the size of the
// rewriting.
func (p *PlannedQuery) Explain() string {
	return fmt.Sprintf("-- federated UCQ of %d disjuncts\n", p.Rewriting.Size()) + plan.Format(p.Root)
}

// Plan builds the federated plan of q without executing it. Executing the
// returned plan runs what Answer runs: each disjunct's leaves stand in
// joinOrder's order and its join steps go through fetcher.joinStep and the
// shared per-plan cache. The RemoteScan annotations — source fan-out, the
// bind-or-fetch rule of a step (bind<=N batch=B), in-flight window —
// describe how the executor crosses the network.
func (e *Engine) Plan(q pattern.Query) (*PlannedQuery, error) {
	res, err := e.rewriteQuery(q)
	if err != nil {
		return nil, err
	}
	f := newFetcher(e)
	children := make([]plan.Node, len(res.Disjuncts))
	for i, d := range res.Disjuncts {
		children[i] = e.disjunctPlan(f, d)
	}
	// with a streaming client, the disjunct union merges rows as branches
	// produce them — the first answer surfaces at the fastest branch's
	// speed, and closing the plan reaches into every branch's remote scans
	root := &plan.Distinct{Child: &plan.Union{Children: children, Stream: e.stream != nil}}
	return &PlannedQuery{Root: root, Rewriting: res, f: f}, nil
}

// Explain renders the federated plan of q.
func (e *Engine) Explain(q pattern.Query) (string, error) {
	p, err := e.Plan(q)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// disjunctPlan builds one disjunct's mediator plan — evalDisjunct as
// operators: RemoteScan leaves in joinOrder's order, folded left-deep by
// RemoteJoin steps bound to fetcher.joinStep (by hash joins over streamed
// extensions when the body is not anchored), in the π·δ query shape.
func (e *Engine) disjunctPlan(f *fetcher, d rewrite.Disjunct) plan.Node {
	gp := d.Query.GP
	if len(gp) == 0 {
		return plan.Unit{}
	}
	ordered := joinOrder(gp)
	stepwise := len(ordered) > 1 && anchored(ordered)
	leaf := func(tp pattern.TriplePattern) *plan.RemoteScan {
		s := &plan.RemoteScan{
			TP:      tp,
			Sources: len(e.reg.SelectSources(patternIRIs(tp))),
			Window:  e.opts.window(),
			Fetch: func(ctx context.Context, tp pattern.TriplePattern) []pattern.Binding {
				rows, err := f.fetchPattern(ctx, tp)
				if err != nil {
					f.recordErr(err)
				}
				return rows
			},
			Degraded: f.skippedNames,
		}
		if e.stream != nil && !stepwise {
			// rows reach the joins as remote chunks arrive; closing the
			// plan iterator closes the remote streams (early termination).
			// A step drains its left side before deciding, so a stepwise
			// body fetches through the shared cache instead.
			s.FetchStream = f.streamPattern
		}
		return s
	}
	var root plan.Node = leaf(ordered[0])
	for _, tp := range ordered[1:] {
		right, shared := leaf(tp), sharedSorted(root.Vars(), tp.Vars())
		if !stepwise {
			root = &plan.HashJoin{Left: root, Right: right, Shared: shared}
			continue
		}
		right.BindLimit, right.Batch = e.opts.bindLimit(), e.opts.batchSize()
		right.Probe = func(ctx context.Context, tp pattern.TriplePattern, left []pattern.Binding) ([]pattern.Binding, bool) {
			rows, shipped, err := f.joinStep(ctx, tp, left)
			if err != nil {
				f.recordErr(err)
			}
			return rows, shipped
		}
		root = &plan.RemoteJoin{Left: root, Right: right, Shared: shared}
	}
	// the disjunct→answer step of rewrite.Disjunct.Project, as operators:
	// splice in answer variables the rewriting bound to constants, drop
	// tuples with unbound answer variables or blank nodes (Q_D semantics)
	if len(d.Bound) > 0 {
		root = &plan.Extend{Child: root, Bound: d.Bound}
	}
	free := d.Query.Free
	certain := &plan.Filter{
		Child: root,
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
	return &plan.Distinct{Child: &plan.Project{Child: certain, Cols: free}}
}

// sharedSorted intersects two sorted variable lists.
func sharedSorted(a, b []string) []string {
	set := make(map[string]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	var out []string
	for _, v := range b {
		if set[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
