package pattern

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/rdf"
)

// Binding is a mapping µ : V → (I ∪ B ∪ L), a partial function from variable
// names to terms. dom(µ) is the key set.
type Binding map[string]rdf.Term

// Clone returns an independent copy of the binding.
func (mu Binding) Clone() Binding {
	out := make(Binding, len(mu))
	for k, v := range mu {
		out[k] = v
	}
	return out
}

// Compatible reports whether µ₁ and µ₂ agree on every shared variable, i.e.
// whether µ₁ ∪ µ₂ is itself a mapping.
func Compatible(mu1, mu2 Binding) bool {
	// iterate over the smaller map
	if len(mu2) < len(mu1) {
		mu1, mu2 = mu2, mu1
	}
	for k, v := range mu1 {
		if w, ok := mu2[k]; ok && w != v {
			return false
		}
	}
	return true
}

// Union returns µ₁ ∪ µ₂; the caller must have checked compatibility.
func Union(mu1, mu2 Binding) Binding {
	out := make(Binding, len(mu1)+len(mu2))
	for k, v := range mu1 {
		out[k] = v
	}
	for k, v := range mu2 {
		out[k] = v
	}
	return out
}

// Join computes Ω₁ ⋈ Ω₂ = {µ₁ ∪ µ₂ | µ₁ ∈ Ω₁, µ₂ ∈ Ω₂ compatible}. It uses a
// hash join on the shared variables when any exist, degrading to a cross
// product otherwise.
func Join(om1, om2 []Binding) []Binding {
	if len(om1) == 0 || len(om2) == 0 {
		return nil
	}
	// A hash join on the shared variables is only sound when every binding
	// in a set has the same domain (true for ⟦·⟧ evaluation, where
	// dom(µ) = var(GP)); otherwise fall back to a nested loop.
	if !UniformDomain(om1) || !UniformDomain(om2) {
		var out []Binding
		for _, a := range om1 {
			for _, b := range om2 {
				if Compatible(a, b) {
					out = append(out, Union(a, b))
				}
			}
		}
		return out
	}
	shared := SharedVars(om1[0], om2[0])
	if len(shared) == 0 {
		out := make([]Binding, 0, len(om1)*len(om2))
		for _, a := range om1 {
			for _, b := range om2 {
				out = append(out, Union(a, b))
			}
		}
		return out
	}
	// hash join: bucket om2 by shared-variable values
	idx := make(map[string][]Binding, len(om2))
	for _, b := range om2 {
		idx[joinKey(b, shared)] = append(idx[joinKey(b, shared)], b)
	}
	var out []Binding
	for _, a := range om1 {
		for _, b := range idx[joinKey(a, shared)] {
			if Compatible(a, b) {
				out = append(out, Union(a, b))
			}
		}
	}
	return out
}

// UniformDomain reports whether every binding in the set has the same
// domain — the soundness condition for hashing on shared variables. Shared
// with internal/plan's hash join so the guard cannot diverge from Join's.
func UniformDomain(om []Binding) bool {
	for _, b := range om[1:] {
		if len(b) != len(om[0]) {
			return false
		}
		for k := range b {
			if _, ok := om[0][k]; !ok {
				return false
			}
		}
	}
	return true
}

// SharedVars returns the sorted variables bound by both µ₁ and µ₂.
func SharedVars(a, b Binding) []string {
	var out []string
	for k := range a {
		if _, ok := b[k]; ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// BindingKey returns a canonical key for µ restricted to vars. Every
// component is length-prefixed, so separator characters occurring inside
// IRIs or literals cannot make distinct bindings collide. An unbound
// variable encodes as "-:" (no digit ever precedes the colon of a bound
// component's prefix, so the marker is unambiguous).
func BindingKey(mu Binding, vars []string) string {
	var b strings.Builder
	for _, v := range vars {
		if t, ok := mu[v]; ok {
			appendLenPrefixed(&b, t.String())
		} else {
			b.WriteString("-:")
		}
	}
	return b.String()
}

func appendLenPrefixed(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// DomainKey returns a canonical key for µ covering both its domain and its
// values (variable names and terms, all length-prefixed), so bindings with
// different domains cannot collide. Used for duplicate elimination over
// streams whose rows may bind different variable sets.
func DomainKey(mu Binding) string {
	var buf [8]string // rows are narrow: keep the name list off the heap
	vars := buf[:0]
	for v := range mu {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	var b strings.Builder
	for _, v := range vars {
		appendLenPrefixed(&b, v)
		appendLenPrefixed(&b, mu[v].String())
	}
	return b.String()
}

func joinKey(mu Binding, vars []string) string { return BindingKey(mu, vars) }

// BindTriple unifies a triple pattern with a concrete triple, returning
// the mapping µ with µ(tp) = t, or false on a constant mismatch or a
// repeated-variable disagreement. It is the single implementation of this
// invariant, shared by the evaluators here, the chase's semi-naive
// matching, and the plan operators' index probes.
func BindTriple(tp TriplePattern, t rdf.Triple) (Binding, bool) {
	mu := make(Binding, 3)
	bind := func(e Elem, val rdf.Term) bool {
		if !e.IsVar() {
			return e.term == val
		}
		if prev, ok := mu[e.varName]; ok {
			return prev == val
		}
		mu[e.varName] = val
		return true
	}
	if !bind(tp.S, t.S) || !bind(tp.P, t.P) || !bind(tp.O, t.O) {
		return nil, false
	}
	return mu, true
}

// EvalTriplePattern computes ⟦t⟧_D for a single triple pattern: the set of
// mappings µ with dom(µ) = var(t) and µ(t) ∈ D (Definition 1, case 1).
func EvalTriplePattern(g rdf.Source, tp TriplePattern) []Binding {
	var sp, pp, op *rdf.Term
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
	var out []Binding
	g.Match(sp, pp, op, func(t rdf.Triple) bool {
		if mu, ok := BindTriple(tp, t); ok {
			out = append(out, mu)
		}
		return true
	})
	return out
}

// EvalNaive computes ⟦GP⟧_D exactly as Definition 1 states: evaluate each
// triple pattern independently, then fold the results with ⋈ in textual
// order. Kept as the executable specification; Eval is the optimised
// equivalent used elsewhere.
func EvalNaive(g rdf.Source, gp GraphPattern) []Binding {
	if len(gp) == 0 {
		return []Binding{{}}
	}
	om := EvalTriplePattern(g, gp[0])
	for _, tp := range gp[1:] {
		om = Join(om, EvalTriplePattern(g, tp))
		if len(om) == 0 {
			return nil
		}
	}
	return om
}

// planned, when non-nil, is the evaluator Eval delegates to. The streaming,
// cost-based executor of internal/plan installs itself here at init time
// (it cannot be imported from this package, which its operators depend on),
// so every program linking internal/plan — the library root, the commands,
// and all answering strategies — routes Eval through the planner. Held in
// an atomic so a (test-time) swap cannot race with parallel evaluation.
var planned atomic.Pointer[func(rdf.Source, GraphPattern) []Binding]

// SetPlannedEval installs the optimised evaluator used by Eval. Passing nil
// restores the built-in greedy strategy (EvalGreedy).
func SetPlannedEval(f func(rdf.Source, GraphPattern) []Binding) {
	if f == nil {
		planned.Store(nil)
		return
	}
	planned.Store(&f)
}

// Eval computes ⟦GP⟧_D. When the plan-based executor is linked it is the
// default path (see SetPlannedEval); otherwise evaluation falls back to
// EvalGreedy. The result is set-equivalent to EvalNaive either way.
func Eval(g rdf.Source, gp GraphPattern) []Binding {
	if f := planned.Load(); f != nil {
		return (*f)(g, gp)
	}
	return evalOrdered(g, gp, true)
}

// EvalGreedy computes ⟦GP⟧_D using index nested-loop evaluation with greedy
// selectivity-based join ordering: at each step the pattern with the fewest
// estimated matches under the current bindings is evaluated next. Kept as
// the pre-planner strategy for the join-ordering ablation.
func EvalGreedy(g rdf.Source, gp GraphPattern) []Binding {
	return evalOrdered(g, gp, true)
}

// EvalTextualOrder evaluates with index nested loops but in textual pattern
// order, without reordering. Used by the join-ordering ablation benchmark.
func EvalTextualOrder(g rdf.Source, gp GraphPattern) []Binding {
	return evalOrdered(g, gp, false)
}

func evalOrdered(g rdf.Source, gp GraphPattern, reorder bool) []Binding {
	if len(gp) == 0 {
		return []Binding{{}}
	}
	remaining := make([]TriplePattern, len(gp))
	copy(remaining, gp)
	results := []Binding{{}}
	for len(remaining) > 0 && len(results) > 0 {
		pick := 0
		if reorder {
			// estimate cardinality of each remaining pattern under the
			// domain of variables bound so far (using the first binding as
			// a representative for which vars are bound)
			bound := results[0]
			best := -1
			for i, tp := range remaining {
				est := estimate(g, tp, bound)
				if best == -1 || est < best {
					best, pick = est, i
				}
			}
		}
		tp := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		var next []Binding
		for _, mu := range results {
			next = append(next, extend(g, tp, mu)...)
		}
		results = next
	}
	return results
}

// extend evaluates tp with mu's bindings substituted and unions each match
// into mu.
func extend(g rdf.Source, tp TriplePattern, mu Binding) []Binding {
	inst := tp.Apply(mu)
	matches := EvalTriplePattern(g, inst)
	out := make([]Binding, 0, len(matches))
	for _, m := range matches {
		out = append(out, Union(mu, m))
	}
	return out
}

func estimate(g rdf.Source, tp TriplePattern, bound Binding) int {
	inst := tp.Apply(bound)
	var sp, pp, op *rdf.Term
	if !inst.S.IsVar() {
		t := inst.S.Term()
		sp = &t
	}
	if !inst.P.IsVar() {
		t := inst.P.Term()
		pp = &t
	}
	if !inst.O.IsVar() {
		t := inst.O.Term()
		op = &t
	}
	return g.MatchCount(sp, pp, op)
}

// Tuple is an answer tuple of RDF terms.
type Tuple []rdf.Term

// Key returns a canonical string key for set membership of tuples. Each
// component is length-prefixed so terms containing separator characters
// cannot make distinct tuples collide.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, x := range t {
		appendLenPrefixed(&b, x.String())
	}
	return b.String()
}

// Compare orders tuples component-wise by Term.Compare, shorter tuples
// first on a common prefix. Sorted output everywhere uses this ordering.
func (t Tuple) Compare(u Tuple) int {
	for i := range t {
		if i >= len(u) {
			return 1
		}
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	if len(t) < len(u) {
		return -1
	}
	return 0
}

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// HasBlank reports whether any component is a blank node.
func (t Tuple) HasBlank() bool {
	for _, x := range t {
		if x.IsBlank() {
			return true
		}
	}
	return false
}

// String renders the tuple as "(a, b, c)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, x := range t {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// TupleSet is a set of tuples with deterministic iteration via Sorted.
type TupleSet struct {
	m map[string]Tuple
}

// NewTupleSet returns an empty set.
func NewTupleSet() *TupleSet { return &TupleSet{m: make(map[string]Tuple)} }

// Add inserts the tuple, reporting whether it was new.
func (s *TupleSet) Add(t Tuple) bool {
	k := t.Key()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = t
	return true
}

// Has reports membership.
func (s *TupleSet) Has(t Tuple) bool {
	_, ok := s.m[t.Key()]
	return ok
}

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return len(s.m) }

// Merge adds every tuple of other into s. Used to combine the per-branch
// results of a parallel UCQ union deterministically.
func (s *TupleSet) Merge(other *TupleSet) {
	for k, t := range other.m {
		s.m[k] = t
	}
}

// Minus returns the tuples of s not present in other, sorted.
func (s *TupleSet) Minus(other *TupleSet) []Tuple {
	var out []Tuple
	for k, t := range s.m {
		if _, ok := other.m[k]; !ok {
			out = append(out, t)
		}
	}
	sortTuples(out)
	return out
}

// SubsetOf reports whether every tuple of s is in other.
func (s *TupleSet) SubsetOf(other *TupleSet) bool {
	for k := range s.m {
		if _, ok := other.m[k]; !ok {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s *TupleSet) Equal(other *TupleSet) bool {
	return len(s.m) == len(other.m) && s.SubsetOf(other)
}

// Sorted returns the tuples in deterministic order.
func (s *TupleSet) Sorted() []Tuple {
	out := make([]Tuple, 0, len(s.m))
	for _, t := range s.m {
		out = append(out, t)
	}
	sortTuples(out)
	return out
}

func sortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// EvalQuery computes Q_D: the answer tuples whose components are all in
// I ∪ L (blank-node tuples are dropped, matching the semantics of labelled
// nulls).
func EvalQuery(g rdf.Source, q Query) *TupleSet {
	return evalQuery(g, q, false)
}

// EvalQueryStar computes Q*_D: like EvalQuery but tuples may contain blank
// nodes. Used for the semantics of equivalence mappings (Definition 2).
func EvalQueryStar(g rdf.Source, q Query) *TupleSet {
	return evalQuery(g, q, true)
}

func evalQuery(g rdf.Source, q Query, star bool) *TupleSet {
	out := NewTupleSet()
	for _, mu := range Eval(g, q.GP) {
		tuple := make(Tuple, len(q.Free))
		ok := true
		for i, f := range q.Free {
			t, bound := mu[f]
			if !bound {
				ok = false
				break
			}
			if !star && t.IsBlank() {
				ok = false
				break
			}
			tuple[i] = t
		}
		if ok {
			out.Add(tuple)
		}
	}
	return out
}

// Ask evaluates a boolean query: true iff the body matches the graph.
func Ask(g rdf.Source, q Query) bool {
	return len(Eval(g, q.GP)) > 0
}
