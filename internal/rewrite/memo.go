package rewrite

import (
	"maps"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/rdf"
)

// memoCapacity bounds the disjuncts a Memo holds across all its shapes. On
// overflow the memo drops every entry, as plan's join-order cache does:
// shapes are few and cheap to recompute, so LRU bookkeeping is not worth
// it. A rewriting larger than the whole bound is returned without being
// held.
const memoCapacity = 1 << 14

// placeholderPrefix starts the value of every placeholder constant. The
// NUL byte keeps it out of anything the SPARQL, Turtle and mapping-file
// parsers are meant to produce; a system that does mention such a constant
// switches its memo off rather than risk a collision.
const placeholderPrefix = "\x00shape:"

// Memo caches rewritings by query shape: the rewriting module run once per
// shape instead of once per query.
//
// A query's shape is the query with every IRI or literal constant that the
// system's mappings do not mention replaced by a placeholder of the same
// term kind, equal constants by equal placeholders. The constants kept
// verbatim are those SystemTGDs mentions: the bodies and heads of the
// GMAs and both sides of every equivalence. Blank-node constants stay
// verbatim too. The abstraction is sound because the rewriting never looks
// inside a constant: a piece unifier only tests constants for equality,
// with one another and with the TGDs' constants. Renaming a constant that
// no TGD mentions, injectively, therefore commutes with every rewriting
// step — the rewriting of the renamed query is the renamed rewriting. So
// the memo rewrites the shape once and answers every query of that shape
// by one substitution pass over the cached disjuncts.
//
// The key is the answer-variable list, the abstracted body and the
// Options, under the system's mapping version (len(sys.G), len(sys.E)).
// Those slices only grow, through AddMapping and AddEquivalence, so a
// version that moved means new mappings: the kept-constant set is then
// recomputed and every entry dropped.
//
// The zero Memo is ready to use and safe for concurrent use. Cached
// results are never handed out: every call returns freshly allocated
// disjuncts. Concurrent misses on one shape may both compute it.
type Memo struct {
	mu      sync.Mutex
	sys     *core.System
	version [2]int
	sigma   []TripleTGD
	kept    map[rdf.Term]int // kept constant → its index in shape keys
	off     bool             // a mapping constant looks like a placeholder
	entries map[memoKey]*Result
	held    int // disjuncts across entries
}

type memoKey struct {
	opts  Options
	shape string
}

// Rewrite returns the rewriting of q under the mappings of sys, equivalent
// to Rewrite(q, sys, opts), and whether its shape was already held.
func (m *Memo) Rewrite(q pattern.Query, sys *core.System, opts Options) (*Result, bool, error) {
	m.mu.Lock()
	m.syncLocked(sys)
	sigma, kept, off, version := m.sigma, m.kept, m.off, m.version
	m.mu.Unlock()
	if off {
		res, err := RewriteTGDs(q, sigma, opts)
		return res, false, err
	}
	abstract, consts, shape := abstractConstants(q, kept)
	key := memoKey{opts: opts, shape: shape}
	var cached *Result
	hit := false
	m.mu.Lock()
	if m.sys == sys && m.version == version { // shape keys number kept constants per version
		cached, hit = m.entries[key]
	}
	m.mu.Unlock()
	if !hit {
		res, err := RewriteTGDs(abstract, sigma, opts)
		if err != nil {
			return nil, false, err
		}
		m.store(sys, version, key, res)
		cached = res
	}
	return instantiate(cached, consts), hit, nil
}

// syncLocked recomputes the dependencies and the kept constants when the
// system or its mapping version changed since the last call.
func (m *Memo) syncLocked(sys *core.System) {
	version := [2]int{len(sys.G), len(sys.E)}
	if m.sys == sys && m.version == version && m.kept != nil {
		return
	}
	m.sys, m.version = sys, version
	m.sigma = SystemTGDs(sys)
	m.kept, m.off = make(map[rdf.Term]int), false
	keep := func(gp pattern.GraphPattern) {
		for _, c := range gp.Constants() {
			if _, ok := m.kept[c]; !ok {
				m.kept[c] = len(m.kept)
				m.off = m.off || strings.HasPrefix(c.Value(), placeholderPrefix)
			}
		}
	}
	for _, t := range m.sigma {
		keep(t.Body)
		keep(t.Head)
	}
	m.entries, m.held = nil, 0
}

// store holds res under key unless the mappings moved while it was being
// computed or it alone exceeds memoCapacity.
func (m *Memo) store(sys *core.System, version [2]int, key memoKey, res *Result) {
	n := len(res.Disjuncts)
	if n > memoCapacity {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sys != sys || m.version != version {
		return
	}
	if m.held+n > memoCapacity {
		m.entries, m.held = nil, 0
	}
	if m.entries == nil {
		m.entries = make(map[memoKey]*Result)
	}
	if old, ok := m.entries[key]; ok {
		m.held -= len(old.Disjuncts)
	}
	m.entries[key] = res
	m.held += n
}

// abstractConstants replaces every IRI or literal constant of q outside
// kept by a placeholder — the i-th distinct one by placeholder i, which
// stands for consts[i] — and renders the shape key of the result.
func abstractConstants(q pattern.Query, kept map[rdf.Term]int) (abstract pattern.Query, consts []rdf.Term, shape string) {
	index := make(map[rdf.Term]int)
	key := make([]byte, 0, 64)
	name := func(s string) {
		key = strconv.AppendInt(key, int64(len(s)), 10)
		key = append(key, ':')
		key = append(key, s...)
	}
	for _, f := range q.Free {
		name(f)
	}
	elem := func(e pattern.Elem) pattern.Elem {
		if e.IsVar() {
			key = append(key, '?')
			name(e.Var())
			return e
		}
		t := e.Term()
		if t.IsBlank() {
			key = append(key, '_')
			name(t.Value())
			return e
		}
		if k, ok := kept[t]; ok {
			key = append(key, 'k')
			key = strconv.AppendInt(key, int64(k), 10)
			return e
		}
		i, ok := index[t]
		if !ok {
			i = len(consts)
			index[t] = i
			consts = append(consts, t)
		}
		key = append(key, '$')
		key = strconv.AppendInt(key, int64(i), 10)
		value := placeholderPrefix + strconv.Itoa(i)
		if t.IsLiteral() {
			return pattern.C(rdf.Literal(value))
		}
		return pattern.C(rdf.IRI(value))
	}
	abstract = pattern.Query{Free: q.Free, GP: make(pattern.GraphPattern, len(q.GP))}
	for i, tp := range q.GP {
		key = append(key, '|')
		abstract.GP[i] = pattern.TP(elem(tp.S), elem(tp.P), elem(tp.O))
	}
	return abstract, consts, string(key)
}

// instantiate maps a cached rewriting's placeholders back to consts, in
// freshly allocated disjuncts. Blank nodes are never placeholders: shapes
// keep them verbatim, whatever their labels.
func instantiate(r *Result, consts []rdf.Term) *Result {
	term := func(t rdf.Term) rdf.Term {
		if t.IsBlank() {
			return t
		}
		if v, ok := strings.CutPrefix(t.Value(), placeholderPrefix); ok {
			if i, err := strconv.Atoi(v); err == nil {
				return consts[i]
			}
		}
		return t
	}
	elem := func(e pattern.Elem) pattern.Elem {
		if e.IsVar() {
			return e
		}
		return pattern.C(term(e.Term()))
	}
	out := &Result{Disjuncts: make([]Disjunct, len(r.Disjuncts)), Depth: r.Depth, Truncated: r.Truncated, Generated: r.Generated}
	for i, d := range r.Disjuncts {
		gp := make(pattern.GraphPattern, len(d.Query.GP))
		for j, tp := range d.Query.GP {
			gp[j] = pattern.TP(elem(tp.S), elem(tp.P), elem(tp.O))
		}
		nd := Disjunct{Query: pattern.Query{Free: append([]string(nil), d.Query.Free...), GP: gp}, Resources: maps.Clone(d.Resources)}
		if d.Bound != nil {
			nd.Bound = make(map[string]rdf.Term, len(d.Bound))
			for v, t := range d.Bound {
				nd.Bound[v] = term(t)
			}
		}
		out.Disjuncts[i] = nd
	}
	return out
}
