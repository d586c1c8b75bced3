package sparql

import (
	"context"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
)

// RowStream is a pull iterator over a query's projected solutions. Rows
// are produced on demand by the query's operator tree, so a consumer that
// stops early (an ASK satisfied by its first row, a LIMIT reached, a
// canceled federated query) stops the underlying scans instead of draining
// them. The peer package's streaming wire protocol serves it.
type RowStream struct {
	// Form echoes the query form.
	Form Form
	// Vars is the projection, in order (SELECT only).
	Vars []string
	// True is the ASK verdict (ASK only; valid immediately — ASK evaluates
	// to the first row and stops).
	True bool

	next     func() (pattern.Tuple, bool)
	closefn  func()
	produced int64
	done     bool
}

// Next returns the next projected row. ok is false once the stream is
// exhausted (or was closed, or the LIMIT was reached).
func (s *RowStream) Next() (pattern.Tuple, bool) {
	if s.done || s.next == nil {
		return nil, false
	}
	row, ok := s.next()
	if !ok {
		s.done = true
		return nil, false
	}
	return row, true
}

// Produced reports how many solution rows the underlying evaluation
// produced so far — the observable cost of the scan at the peer, used by
// tests pinning early termination.
func (s *RowStream) Produced() int64 { return s.produced }

// Close releases the underlying plan iterators. Closing early abandons the
// rest of the scan; Next afterwards reports exhaustion.
func (s *RowStream) Close() {
	s.done = true
	if s.closefn != nil {
		s.closefn()
		s.closefn = nil
	}
}

// EvalStream evaluates the query as a pull stream over one point-in-time
// snapshot of g: it opens the same operator tree as Eval (Plan, with
// streaming unions) and hands rows to the caller as the tree produces
// them. Closing the stream, or reaching LIMIT, closes the tree and
// abandons the rest of its scans; ASK evaluates to the first row and
// stops. err is ctx.Err() when ctx is already done.
//
// Streamed SELECT rows arrive in production order, not the sorted order
// of Eval, and bypass the answer cache; the row set (bag, or set under
// DISTINCT) is identical, though LIMIT may keep different rows.
func (q *Query) EvalStream(ctx context.Context, g rdf.Source) (*RowStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g = rdf.Freeze(g)
	vars := q.ProjectedVars()
	s := &RowStream{Form: q.Form, Vars: vars}
	if q.Form == FormAsk {
		s.True, s.done = q.ask(ctx, g), true
		if s.True {
			s.produced = 1
		}
		return s, nil
	}
	n := q.Plan(g, true)
	if q.Limit > 0 {
		plan.DisableFanout(n)
	}
	it := n.Open(ctx, g)
	var seen map[string]struct{}
	if q.Distinct {
		seen = make(map[string]struct{})
	}
	emitted := 0
	s.closefn = it.Close
	s.next = func() (pattern.Tuple, bool) {
		for {
			mu, ok := it.Next()
			if !ok {
				return nil, false
			}
			s.produced++
			row := make(pattern.Tuple, len(vars))
			for i, v := range vars {
				row[i] = mu[v] // unbound stays the zero Term
			}
			if seen != nil {
				k := row.Key()
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
			}
			emitted++
			if q.Limit > 0 && emitted >= q.Limit {
				// the cap is reached: this row is the last — release the
				// underlying scan now instead of waiting for Close
				s.done = true
				it.Close()
				s.closefn = nil
			}
			return row, true
		}
	}
	return s, nil
}
