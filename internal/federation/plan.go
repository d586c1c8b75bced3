package federation

import (
	"context"
	"fmt"
	"slices"
	"sync"

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
	// Root is the plan: Distinct over the Union of the disjunct plans. Its
	// rows bind the rewriting's answer variables (Rewriting.AnswerVars).
	Root plan.Node
	// Rewriting is the UCQ the plan evaluates.
	Rewriting *rewrite.Result

	f *fetcher
}

// Err returns the network error of the lowest-indexed disjunct that
// recorded one while the plan executed (see fetcher.recordErr).
func (p *PlannedQuery) Err() error { return p.f.Err() }

// Metrics freezes the fetch-layer counters accumulated so far.
func (p *PlannedQuery) Metrics() *Metrics { return p.f.snapshot(p.Rewriting) }

// Explain renders the federated plan, prefixed with the size of the
// rewriting.
func (p *PlannedQuery) Explain() string {
	return fmt.Sprintf("-- federated UCQ of %d disjuncts\n", p.Rewriting.Size()) + plan.Format(p.Root)
}

// Plan builds the federated plan of q without executing it. It is the plan
// AnswerCtx drains, except that the leaves that fetch whole extensions
// stream them and the disjunct union merges rows as branches produce them
// — a consumer that stops early (LIMIT, ASK, a closed iterator) then
// reaches into the remote scans. The RemoteScan annotations — source
// fan-out, the bind-or-fetch rule of a step (bind<=N batch=B), in-flight
// window — describe how the executor crosses the network.
func (e *Engine) Plan(q pattern.Query) (*PlannedQuery, error) {
	res, err := e.rewriteQuery(q)
	if err != nil {
		return nil, err
	}
	return e.planUCQ(res, true), nil
}

// Explain renders the federated plan of q.
func (e *Engine) Explain(q pattern.Query) (string, error) {
	p, err := e.Plan(q)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// planUCQ builds the federated plan of a rewriting over one fresh fetcher,
// so every disjunct shares its fetch cache. stream selects streamed
// extension leaves under a streaming Union; a consumer that drains
// everything gains nothing from them and passes false, so its leaves fetch
// through the shared cache. Each disjunct's rows leave its AnswerNode
// unfiltered for duplicates: the root Distinct removes them once.
func (e *Engine) planUCQ(res *rewrite.Result, stream bool) *PlannedQuery {
	f := newFetcher(e)
	cols := res.AnswerVars()
	sources := func(tp pattern.TriplePattern) int { return len(e.reg.SelectSources(patternIRIs(tp))) }
	children := make([]plan.Node, len(res.Disjuncts))
	for i, d := range res.Disjuncts {
		children[i] = d.AnswerNode(e.disjunctPlan(f, i, d.Query.GP, stream, sources), cols)
	}
	root := &plan.Distinct{Child: &plan.Union{Children: children, Stream: stream}}
	return &PlannedQuery{Root: root, Rewriting: res, f: f}
}

// disjunctPlan builds the mediator plan of disjunct i's body: RemoteScan
// leaves in joinOrder's order, folded left-deep by RemoteJoin steps bound
// to fetcher.joinStep when the body is anchored, and by hash joins over
// whole extensions otherwise. Failures are recorded against i.
func (e *Engine) disjunctPlan(f *fetcher, i int, gp pattern.GraphPattern, stream bool, sources func(pattern.TriplePattern) int) plan.Node {
	if len(gp) == 0 {
		return plan.Unit{}
	}
	ordered := joinOrder(gp)
	stepwise := len(ordered) > 1 && anchored(ordered)
	leaf := func(tp pattern.TriplePattern) *plan.RemoteScan {
		return &plan.RemoteScan{TP: tp, Sources: sources, Window: e.opts.window(), Degraded: f.skippedNames}
	}
	first := leaf(ordered[0])
	switch {
	case stream && !stepwise:
		// rows reach the joins as remote chunks arrive; closing the plan
		// iterator closes the remote streams (early termination). A step
		// drains its left side before deciding, so a stepwise body fetches
		// through the shared cache instead.
		first.FetchStream = func(ctx context.Context, tp pattern.TriplePattern) plan.Iterator {
			return f.streamPattern(ctx, tp, i)
		}
	case !stepwise && len(ordered) > 1:
		first.Fetch = (&extensions{f: f, disjunct: i, gp: ordered}).get
	default:
		first.Fetch = func(ctx context.Context, tp pattern.TriplePattern) []pattern.Binding {
			rows, err := f.fetchPattern(ctx, tp)
			if err != nil {
				f.recordErr(i, err)
			}
			return rows
		}
	}
	var probe func(context.Context, pattern.TriplePattern, []pattern.Binding) ([]pattern.Binding, bool)
	if stepwise {
		probe = func(ctx context.Context, tp pattern.TriplePattern, left []pattern.Binding) ([]pattern.Binding, bool) {
			rows, shipped, err := f.joinStep(ctx, tp, left)
			if err != nil {
				f.recordErr(i, err)
			}
			return rows, shipped
		}
	}
	var root plan.Node = first
	bound := appendVars(make([]string, 0, 3*len(ordered)), ordered[0])
	for _, tp := range ordered[1:] {
		right := leaf(tp)
		shared := sharedVars(bound, tp)
		bound = appendVars(bound, tp)
		if stepwise {
			right.BindLimit, right.Batch, right.Probe = e.opts.bindLimit(), e.opts.batchSize(), probe
			root = &plan.RemoteJoin{Left: root, Right: right, Shared: shared}
		} else {
			right.Fetch, right.FetchStream = first.Fetch, first.FetchStream
			root = &plan.HashJoin{Left: root, Right: right, Shared: shared}
		}
	}
	return root
}

// appendVars appends tp's variables to vars (duplicates included).
func appendVars(vars []string, tp pattern.TriplePattern) []string {
	for _, e := range tp.Elems() {
		if e.IsVar() {
			vars = append(vars, e.Var())
		}
	}
	return vars
}

// sharedVars returns tp's variables that occur in bound, sorted: the join
// variables of a step.
func sharedVars(bound []string, tp pattern.TriplePattern) []string {
	var out []string
	for _, e := range tp.Elems() {
		if e.IsVar() && slices.Contains(bound, e.Var()) && !slices.Contains(out, e.Var()) {
			out = append(out, e.Var())
		}
	}
	slices.Sort(out)
	return out
}

// extensions are the leaf extensions of a body that is not anchored,
// fetched together. plan.HashJoin drains its build side before it opens
// its probe side, so leaves that fetched when opened would pay one round
// trip each, in sequence; instead the first leaf opened fetches every
// leaf's extension concurrently, through the shared cache, and the others
// take their share.
type extensions struct {
	f        *fetcher
	disjunct int
	gp       pattern.GraphPattern
	once     sync.Once
	rows     [][]pattern.Binding
}

// get returns tp's extension, fetching all of them on the first call; the
// first failure in pattern order is recorded against the disjunct.
func (x *extensions) get(ctx context.Context, tp pattern.TriplePattern) []pattern.Binding {
	x.once.Do(func() {
		x.rows = make([][]pattern.Binding, len(x.gp))
		errs := make([]error, len(x.gp))
		plan.Fanout(len(x.gp), func(j int) {
			x.rows[j], errs[j] = x.f.fetchPattern(ctx, x.gp[j])
		})
		for _, err := range errs {
			if err != nil {
				x.f.recordErr(x.disjunct, err)
				break
			}
		}
	})
	return x.rows[slices.Index(x.gp, tp)]
}
