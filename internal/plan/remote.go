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

// RemoteScan is the federated leaf access path: one triple pattern answered
// by the SPARQL services of its candidate peers instead of a local index.
// The federation mediator injects Fetch (bound to its per-execution fetch
// cache and peer client) and the routing/batching parameters, so EXPLAIN
// output shows how the pattern will cross the network: how many sources are
// candidates, the per-peer in-flight window and — for the right side of a
// RemoteJoin — the bind-or-fetch rule (bind<=N batch=B) and, once it ran,
// the branch it took (strategy=bind|extension).
//
// With FetchStream set, opening the node returns a live iterator over the
// remote result stream: rows reach downstream joins as chunks arrive from
// the peers, and closing the iterator (cancellation, LIMIT) closes the
// remote streams so the peers stop producing. Otherwise Fetch materialises
// the pattern's merged remote extension up front and the rows stream from
// an in-memory buffer like Bindings. Network errors have no Iterator
// channel — fetch implementations record them out of band (the mediator's
// fetcher keeps the lowest disjunct's error and the fetch yields no
// further rows).
type RemoteScan struct {
	TP pattern.TriplePattern
	// Sources, when non-nil, counts the candidate peers the registry
	// routes a pattern to; only rendering calls it.
	Sources func(tp pattern.TriplePattern) int
	// Batch, when > 0, is the probe batch size: how many bindings one probe
	// query ships as a native VALUES block joined against a single copy of
	// the pattern.
	Batch int
	// BindLimit, when > 0, is the largest number of distinct restrictions a
	// RemoteJoin ships to this pattern as bindings; a larger left side
	// fetches the extension instead.
	BindLimit int
	// Window, when > 0, is the per-peer cap on concurrently outstanding
	// requests.
	Window int
	// Fetch retrieves the pattern's merged extension from the candidate
	// peers; nil yields no rows (an EXPLAIN-only plan). The context is the
	// one the node was opened under — sub-queries issued by the fetch
	// inherit the request's deadline and stop early on cancellation.
	Fetch func(ctx context.Context, tp pattern.TriplePattern) []pattern.Binding
	// FetchStream, when non-nil, is preferred over Fetch: it opens an
	// incremental iterator over the pattern's merged remote extension, so
	// downstream operators start on the first chunk instead of the last.
	FetchStream func(ctx context.Context, tp pattern.TriplePattern) Iterator
	// Probe serves the scan as the right side of a RemoteJoin: given the
	// join's drained left rows it retrieves the part of the pattern's
	// extension the join needs — the fragment compatible with left when it
	// shipped left's restrictions as bindings (shipped = true), the whole
	// extension otherwise.
	Probe func(ctx context.Context, tp pattern.TriplePattern, left []pattern.Binding) (rows []pattern.Binding, shipped bool)
	// Degraded, when non-nil, reports the sources skipped so far under the
	// mediator's partial-answer degradation; a non-empty report renders as
	// a partial=[…] annotation, so EXPLAIN ANALYZE shows which leaves may
	// be missing contributions.
	Degraded func() []string

	// strategy records the branch the last Probe took ("bind" or
	// "extension"; unset before the first).
	strategy atomic.Value
}

// Vars implements Node.
func (s *RemoteScan) Vars() []string { return s.TP.Vars() }

// Open implements Node.
func (s *RemoteScan) Open(ctx context.Context, _ rdf.Source) Iterator {
	if s.FetchStream != nil {
		return s.FetchStream(ctx, s.TP)
	}
	if s.Fetch == nil {
		return &sliceIter{}
	}
	return &sliceIter{rows: s.Fetch(ctx, s.TP)}
}

func (s *RemoteScan) format(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "RemoteScan[%s]", s.TP)
	if s.Sources != nil {
		fmt.Fprintf(b, " sources=%d", s.Sources(s.TP))
	}
	if s.FetchStream != nil {
		b.WriteString(" stream")
	}
	if s.BindLimit > 0 {
		fmt.Fprintf(b, " bind<=%d", s.BindLimit)
	}
	if s.Batch > 0 {
		fmt.Fprintf(b, " batch=%d", s.Batch)
	}
	if s.Window > 0 {
		fmt.Fprintf(b, " window=%d", s.Window)
	}
	if v, ok := s.strategy.Load().(string); ok {
		b.WriteString(" strategy=" + v)
	}
	if s.Degraded != nil {
		if skipped := s.Degraded(); len(skipped) > 0 {
			fmt.Fprintf(b, " partial=%v", skipped)
		}
	}
	b.WriteByte('\n')
}

// RemoteJoin is the federated join step: Left ⋈ the remote extension of
// Right's pattern. It drains Left first, because how Right crosses the
// network is decided from the cardinality just observed: Right.Probe ships
// Left's distinct restrictions as bindings when they are few and fetches
// the whole extension otherwise (the mediator's rule — see
// federation.DefaultBindLimit). The two sides then hash-join on the
// smaller one. EXPLAIN prints the leaves of a left-deep RemoteJoin chain
// in join order; EXPLAIN ANALYZE adds the branch each step took.
type RemoteJoin struct {
	Left  Node
	Right *RemoteScan
	// Shared is the sorted list of join variables (empty: cross product).
	Shared []string

	// rstats, set by Instrument, receives Right's rows and time: Right is
	// never opened as a node, so a wrapping shell would stay at zero.
	rstats *statsNode
}

// Vars implements Node.
func (j *RemoteJoin) Vars() []string { return unionVars(j.Left.Vars(), j.Right.Vars()) }

// Open implements Node.
func (j *RemoteJoin) Open(ctx context.Context, src rdf.Source) Iterator {
	left := Drain(j.Left.Open(ctx, src))
	if len(left) == 0 || j.Right.Probe == nil {
		return &sliceIter{}
	}
	start := time.Now()
	right, shipped := j.Right.Probe(ctx, j.Right.TP, left)
	if shipped {
		j.Right.strategy.Store("bind")
	} else {
		j.Right.strategy.Store("extension")
	}
	if j.rstats != nil {
		j.rstats.wallNs.Add(time.Since(start).Nanoseconds())
		j.rstats.rows.Add(int64(len(right)))
		j.rstats.nexts.Add(int64(len(right)))
	}
	if len(left) < len(right) {
		left, right = right, left
	}
	return &sliceIter{rows: HashJoinBindings(left, right)}
}

func (j *RemoteJoin) format(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "RemoteJoin[on %s]\n", joinLabel(j.Shared))
	j.Left.format(b, depth+1)
	if j.rstats != nil {
		j.rstats.format(b, depth+1)
	} else {
		j.Right.format(b, depth+1)
	}
}
