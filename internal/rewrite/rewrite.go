// Package rewrite implements first-order query rewriting under the TGDs of
// an RDF Peer System (Section 4 of the paper). Given a graph pattern query
// q and a system P, it computes a union of conjunctive queries qP such that
// evaluating qP over the stored database yields exactly the certain answers
// — a perfect rewriting — whenever the TGD-rewrite procedure saturates
// (guaranteed for linear or sticky mapping sets, Proposition 2).
//
// The rewriting engine is piece-based, in the style of TGD-rewrite /
// XRewrite (Gottlob, Orsi, Pieris): a rewriting step selects a subset S of
// the query's atoms, a TGD σ, and a piece unifier of S with head(σ) that
// respects the existential variables of σ; the step replaces S with
// body(σ). Multi-atom heads (from graph mapping assertions whose target
// query has several triple patterns) are handled directly by unifying S
// with any subset of the head.
//
// As the paper notes before Proposition 3, the rt(x) atoms of the encoding
// can be dropped for rewriting purposes (every constant of the stored
// database is an identified resource), so the engine works on tt atoms —
// i.e. directly on triple patterns. What the atoms still say is kept as a
// mark: a variable a rewriting step introduces from a GMA body's answer
// positions (TripleTGD.Resources) is a resource variable, and no later
// step may unify it with an existential variable — a labelled null is not
// a resource, so that step would chain two GMAs through a null the chase
// never lets the second one fire on.
//
// For non-FO-rewritable sets (Proposition 3), rewriting does not saturate;
// Options.MaxDepth bounds the expansion and the Result reports truncation,
// which the E5 experiment uses to exhibit the unbounded growth.
//
// # Rewriting once per shape
//
// A Memo rewrites each query shape once. The shape is the query with every
// IRI or literal constant that no mapping mentions replaced by a
// placeholder, equal constants by equal placeholders. A later query of a
// known shape costs one substitution pass over the cached disjuncts instead
// of a rewriting run. The soundness condition is that the rewriting never
// looks inside a constant: piece unifiers only test constants for
// equality, with one another and with the constants of the TGDs. So an
// injective renaming of constants that no TGD mentions commutes with every
// rewriting step. The constants the system's GMAs and equivalences do
// mention stay in the shape verbatim, and the memo starts over whenever a
// mapping is added.
package rewrite

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
)

// Options bounds the rewriting expansion.
type Options struct {
	// MaxDepth bounds breadth-first rewriting rounds; 0 means 64.
	MaxDepth int
	// MaxQueries bounds the UCQ size; 0 means 100000.
	MaxQueries int
}

// Disjunct is one conjunctive query of the rewriting. When a piece
// unification equates an answer variable with a constant, the body carries
// the constant and Bound records the variable's fixed value; answer tuples
// of the disjunct have that constant at the variable's positions.
type Disjunct struct {
	Query pattern.Query
	Bound map[string]rdf.Term
}

// AnswerNode is the disjunct→answer step as operators over a plan of the
// disjunct's body: splice in the answer variables the rewriting bound to
// constants (Extend), drop rows with an unbound answer variable or a blank
// node (Q_D semantics, Filter[certain]), and project onto cols. cols are
// the UCQ's answer columns (Result.AnswerVars), position for position with
// the disjunct's own answer variables, which a unifier may have renamed or
// merged; rows of every disjunct thus share one schema, and one Distinct
// above the union of the disjuncts removes duplicates for all of them.
// Local UCQ plans (UCQPlan) and the federation mediator both end in it.
func (d Disjunct) AnswerNode(body plan.Node, cols []string) plan.Node {
	if len(d.Bound) > 0 {
		body = &plan.Extend{Child: body, Bound: d.Bound}
	}
	free := d.Query.Free
	certain := &plan.Filter{Child: body, Pred: func(mu pattern.Binding) bool {
		for _, f := range free {
			t, ok := mu[f]
			if !ok || t.IsBlank() {
				return false
			}
		}
		return true
	}, Label: "certain"}
	proj := &plan.Project{Child: certain, Cols: free}
	if !slices.Equal(free, cols) {
		proj.As = cols
	}
	return proj
}

// String renders the disjunct, annotating bound answer variables.
func (d Disjunct) String() string {
	s := d.Query.String()
	if len(d.Bound) > 0 {
		var parts []string
		for v, t := range d.Bound {
			parts = append(parts, "?"+v+"="+t.String())
		}
		sort.Strings(parts)
		s += " [" + strings.Join(parts, ", ") + "]"
	}
	return s
}

// Result is the outcome of a rewriting run.
type Result struct {
	// Disjuncts is the computed union of conjunctive queries; the original
	// query is always the first disjunct.
	Disjuncts []Disjunct
	// Depth is the number of breadth-first rounds performed until
	// saturation or truncation.
	Depth int
	// Truncated reports that a bound was hit before saturation: the UCQ is
	// then sound but possibly incomplete.
	Truncated bool
	// Generated counts all candidate rewritings generated (including
	// duplicates discarded by canonicalisation).
	Generated int
}

// Size returns the number of disjuncts.
func (r *Result) Size() int { return len(r.Disjuncts) }

// AnswerVars returns the answer variables of the rewritten query — the
// first disjunct's, which is the query itself — in answer-tuple order.
func (r *Result) AnswerVars() []string {
	if len(r.Disjuncts) == 0 {
		return nil
	}
	return r.Disjuncts[0].Query.Free
}

// UCQ returns the disjuncts without constant bindings as plain pattern
// queries — sufficient for boolean queries and for display. Disjuncts with
// bound answer variables are included with their bodies as-is.
func (r *Result) UCQ() []pattern.Query {
	out := make([]pattern.Query, len(r.Disjuncts))
	for i, d := range r.Disjuncts {
		out[i] = d.Query
	}
	return out
}

// Evaluate evaluates the rewriting over a database (normally the stored
// database) and returns the union of the disjuncts' certain-answer tuples.
// The disjuncts are the branches of plan's parallel Union: each is planned
// and executed on its own goroutine (bounded by GOMAXPROCS) and the
// per-branch tuple sets merge deterministically in branch order.
func (r *Result) Evaluate(g *rdf.Graph) *pattern.TupleSet {
	sets := make([]*pattern.TupleSet, len(r.Disjuncts))
	plan.Fanout(len(r.Disjuncts), func(i int) {
		s := pattern.NewTupleSet()
		evalDisjunct(g, r.Disjuncts[i], s)
		sets[i] = s
	})
	out := pattern.NewTupleSet()
	for _, s := range sets {
		out.Merge(s)
	}
	return out
}

func evalDisjunct(g *rdf.Graph, d Disjunct, out *pattern.TupleSet) {
	if len(d.Bound) == 0 {
		out.Merge(plan.ExecuteQuery(g, d.Query))
		return
	}
	// evaluate with the unbound answer variables only, then splice the
	// constants back into each tuple
	var unbound []string
	for _, f := range d.Query.Free {
		if _, ok := d.Bound[f]; !ok {
			unbound = append(unbound, f)
		}
	}
	inner := pattern.Query{Free: unbound, GP: d.Query.GP}
	for _, t := range plan.ExecuteQuery(g, inner).Sorted() {
		full := make(pattern.Tuple, len(d.Query.Free))
		j := 0
		for i, f := range d.Query.Free {
			if c, ok := d.Bound[f]; ok {
				full[i] = c
			} else {
				full[i] = t[j]
				j++
			}
		}
		out.Add(full)
	}
}

// UCQPlan builds the rewriting's evaluation as one operator tree over src:
// a parallel Union of per-disjunct plans, each ending in the disjunct's
// AnswerNode — Evaluate, expressed as plan operators. The root Distinct's
// output cardinality equals Evaluate's, which makes the tree suitable for
// EXPLAIN ANALYZE via plan.ExplainAnalyzeNode.
func (r *Result) UCQPlan(src rdf.Source) plan.Node {
	cols := r.AnswerVars()
	children := make([]plan.Node, len(r.Disjuncts))
	for i, d := range r.Disjuncts {
		children[i] = d.AnswerNode(plan.Plan(src, d.Query.GP), cols)
	}
	return &plan.Distinct{Child: &plan.Union{Children: children}}
}

// Ask evaluates a boolean rewriting over a database. Each disjunct's plan
// streams, so evaluation stops at the first row of the first satisfiable
// branch.
func (r *Result) Ask(g *rdf.Graph) bool {
	for _, d := range r.Disjuncts {
		if plan.Ask(g, d.Query.GP) {
			return true
		}
	}
	return false
}

// Rewrite computes the UCQ rewriting of q under the mapping dependencies of
// sys: the graph-mapping-assertion TGDs and the equivalence copy TGDs.
func Rewrite(q pattern.Query, sys *core.System, opts Options) (*Result, error) {
	return RewriteTGDs(q, SystemTGDs(sys), opts)
}

// TripleTGD is a TGD over the ternary tt relation, expressed directly as
// triple patterns: Body → Head with head variables absent from the body
// existentially quantified.
type TripleTGD struct {
	Body  pattern.GraphPattern
	Head  pattern.GraphPattern
	Label string
	// Resources lists the body variables the encoding guards with rt
	// atoms — a GMA's answer variables: they bind only to resources,
	// never to labelled nulls.
	Resources []string
}

// ExistentialVars returns head variables that do not occur in the body.
func (t TripleTGD) ExistentialVars() map[string]bool {
	body := make(map[string]bool)
	for _, v := range t.Body.Vars() {
		body[v] = true
	}
	out := make(map[string]bool)
	for _, v := range t.Head.Vars() {
		if !body[v] {
			out[v] = true
		}
	}
	return out
}

// Vars returns all variables of the TGD, sorted.
func (t TripleTGD) Vars() []string {
	set := make(map[string]struct{})
	for _, v := range t.Body.Vars() {
		set[v] = struct{}{}
	}
	for _, v := range t.Head.Vars() {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// String renders the TGD.
func (t TripleTGD) String() string {
	s := t.Body.String() + " -> " + t.Head.String()
	if t.Label != "" {
		s = "[" + t.Label + "] " + s
	}
	return s
}

// SystemTGDs converts the system's mappings into TripleTGDs (tt atoms only).
func SystemTGDs(sys *core.System) []TripleTGD {
	var out []TripleTGD
	for _, m := range sys.G {
		out = append(out, GMATGD(m))
	}
	for _, e := range sys.E {
		out = append(out, EquivalenceTGDs(e)...)
	}
	return out
}

// GMATGD converts a graph mapping assertion Q ⤳ Q′ into a TripleTGD
// Qbody → Q′body with the free variables identified positionally.
func GMATGD(m core.GraphMappingAssertion) TripleTGD {
	from := m.From.Rename("b_")
	headFree := make(map[string]string, len(m.To.Free))
	for i, f := range m.To.Free {
		headFree[f] = from.Free[i]
	}
	ren := func(e pattern.Elem) pattern.Elem {
		if !e.IsVar() {
			return e
		}
		if mapped, ok := headFree[e.Var()]; ok {
			return pattern.V(mapped)
		}
		return pattern.V("h_" + e.Var())
	}
	head := make(pattern.GraphPattern, len(m.To.GP))
	for i, tp := range m.To.GP {
		head[i] = pattern.TP(ren(tp.S), ren(tp.P), ren(tp.O))
	}
	label := m.Label
	if label == "" {
		label = "gma"
	}
	return TripleTGD{Body: from.GP, Head: head, Label: label, Resources: from.Free}
}

// EquivalenceTGDs returns the six linear copy TGDs for c ≡ₑ c′.
func EquivalenceTGDs(e core.EquivalenceMapping) []TripleTGD {
	c, cp := pattern.C(e.C), pattern.C(e.CPrime)
	y, z := pattern.V("y"), pattern.V("z")
	mk := func(b, h pattern.TriplePattern, label string) TripleTGD {
		return TripleTGD{Body: pattern.GraphPattern{b}, Head: pattern.GraphPattern{h}, Label: label}
	}
	return []TripleTGD{
		mk(pattern.TP(c, y, z), pattern.TP(cp, y, z), "eq-subj-fw"),
		mk(pattern.TP(cp, y, z), pattern.TP(c, y, z), "eq-subj-bw"),
		mk(pattern.TP(y, c, z), pattern.TP(y, cp, z), "eq-pred-fw"),
		mk(pattern.TP(y, cp, z), pattern.TP(y, c, z), "eq-pred-bw"),
		mk(pattern.TP(y, z, c), pattern.TP(y, z, cp), "eq-obj-fw"),
		mk(pattern.TP(y, z, cp), pattern.TP(y, z, c), "eq-obj-bw"),
	}
}

// cq is the internal conjunctive-query representation during rewriting.
// resources marks the variables that came from a GMA body's answer
// positions (see the package comment).
type cq struct {
	free      []string
	bound     map[string]rdf.Term
	atoms     pattern.GraphPattern
	resources map[string]bool
}

func (q cq) toDisjunct() Disjunct {
	d := Disjunct{Query: pattern.Query{Free: q.free, GP: q.atoms}}
	if len(q.bound) > 0 {
		d.Bound = make(map[string]rdf.Term, len(q.bound))
		for k, v := range q.bound {
			d.Bound[k] = v
		}
	}
	return d
}

// RewriteTGDs computes the UCQ rewriting of q under an explicit dependency
// set; used by tests and the Proposition 3 experiment.
func RewriteTGDs(q pattern.Query, sigma []TripleTGD, opts Options) (*Result, error) {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 64
	}
	if opts.MaxQueries == 0 {
		opts.MaxQueries = 100000
	}
	for _, f := range q.Free {
		found := false
		for _, v := range q.GP.Vars() {
			if v == f {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("rewrite: free variable ?%s not in query body", f)
		}
	}
	start := cq{free: append([]string(nil), q.Free...), atoms: dedupAtoms(q.GP)}
	seen := map[string]bool{canonicalKey(start): true}
	result := &Result{Disjuncts: []Disjunct{start.toDisjunct()}}
	frontier := []cq{start}
	renameCounter := 0

	for depth := 0; len(frontier) > 0; depth++ {
		if depth >= opts.MaxDepth {
			result.Truncated = true
			break
		}
		result.Depth = depth + 1
		var next []cq
		for _, cur := range frontier {
			for _, s := range sigma {
				renameCounter++
				for _, rw := range rewriteStep(cur, s, renameCounter) {
					result.Generated++
					key := canonicalKey(rw)
					if seen[key] {
						continue
					}
					seen[key] = true
					result.Disjuncts = append(result.Disjuncts, rw.toDisjunct())
					next = append(next, rw)
					if len(result.Disjuncts) >= opts.MaxQueries {
						result.Truncated = true
						return result, nil
					}
				}
			}
		}
		frontier = next
	}
	return result, nil
}

// rewriteStep returns every query obtainable from cur by one
// piece-rewriting step with TGD s, whose variables are renamed apart with a
// globally fresh prefix.
func rewriteStep(cur cq, s TripleTGD, serial int) []cq {
	prefix := fmt.Sprintf("g%d·", serial)
	body := renameGP(s.Body, prefix)
	head := renameGP(s.Head, prefix)
	tgdVars := make(map[string]bool)
	for _, v := range s.Vars() {
		tgdVars[prefix+v] = true
	}
	exist := make(map[string]bool)
	for v := range s.ExistentialVars() {
		exist[prefix+v] = true
	}
	free := make(map[string]bool, len(cur.free))
	for _, f := range cur.free {
		free[f] = true
	}

	var out []cq
	n := len(cur.atoms)
	if n > 16 {
		n = 16 // cap subset enumeration; the fragment's queries are small
	}
	// positional pre-check: which query atoms can unify with which head
	// atoms at all (constant positions must agree)
	can := make([][]bool, n)
	anyCan := false
	for i := 0; i < n; i++ {
		can[i] = make([]bool, len(head))
		for j, ha := range head {
			if positionalMatch(cur.atoms[i], ha) {
				can[i][j] = true
				anyCan = true
			}
		}
	}
	if !anyCan {
		return nil
	}
	for mask := 1; mask < (1 << n); mask++ {
		idxs := subsetIndexes(mask, n)
		feasible := true
		for _, qi := range idxs {
			ok := false
			for j := range head {
				if can[qi][j] {
					ok = true
					break
				}
			}
			if !ok {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		assign := make([]int, len(idxs))
		for {
			allowed := true
			for k, qi := range idxs {
				if !can[qi][assign[k]] {
					allowed = false
					break
				}
			}
			if allowed {
				if u := tryUnify(cur, idxs, assign, head, exist, free, tgdVars); u != nil {
					rw, ok := buildRewriting(cur, mask, body, prefix, s.Resources, u, free)
					// subsumption pruning: a candidate subsumed by its
					// parent contributes no answers and (by the cover
					// property of piece rewriting) no unique rewritings
					if ok && !subsumes(cur, rw) {
						out = append(out, rw)
					}
				}
			}
			k := len(assign) - 1
			for ; k >= 0; k-- {
				assign[k]++
				if assign[k] < len(head) {
					break
				}
				assign[k] = 0
			}
			if k < 0 {
				break
			}
		}
	}
	return out
}

// positionalMatch reports whether two atoms could unify: constant positions
// must carry equal terms.
func positionalMatch(a, b pattern.TriplePattern) bool {
	pairOK := func(x, y pattern.Elem) bool {
		return x.IsVar() || y.IsVar() || x.Term() == y.Term()
	}
	return pairOK(a.S, b.S) && pairOK(a.P, b.P) && pairOK(a.O, b.O)
}

// subsumes reports whether general subsumes specific: there is a
// homomorphism h from general's atoms into specific's atoms with h the
// identity on general's free variables (mapping a free variable bound in
// specific to its bound constant). Then every answer of specific is an
// answer of general on every database.
func subsumes(general, specific cq) bool {
	if len(general.free) != len(specific.free) {
		return false
	}
	h := make(map[string]pattern.Elem)
	for i, f := range general.free {
		sf := specific.free[i]
		if c, ok := specific.bound[sf]; ok {
			h[f] = pattern.C(c)
		} else {
			h[f] = pattern.V(sf)
		}
	}
	return homExtend(general.atoms, 0, specific.atoms, h)
}

func homExtend(gen pattern.GraphPattern, i int, spec pattern.GraphPattern, h map[string]pattern.Elem) bool {
	if i == len(gen) {
		return true
	}
	ga := gen[i]
	for _, sa := range spec {
		bindings, ok := homMatchAtom(ga, sa, h)
		if !ok {
			continue
		}
		for v, e := range bindings {
			h[v] = e
		}
		if homExtend(gen, i+1, spec, h) {
			return true
		}
		for v := range bindings {
			delete(h, v)
		}
	}
	return false
}

// homMatchAtom tries to map atom ga onto sa under h, returning the new
// variable bindings on success.
func homMatchAtom(ga, sa pattern.TriplePattern, h map[string]pattern.Elem) (map[string]pattern.Elem, bool) {
	added := make(map[string]pattern.Elem)
	match := func(g, s pattern.Elem) bool {
		if !g.IsVar() {
			return !s.IsVar() && g.Term() == s.Term()
		}
		v := g.Var()
		if cur, ok := h[v]; ok {
			return cur == s
		}
		if cur, ok := added[v]; ok {
			return cur == s
		}
		added[v] = s
		return true
	}
	if match(ga.S, sa.S) && match(ga.P, sa.P) && match(ga.O, sa.O) {
		return added, true
	}
	return nil, false
}

// buildRewriting assembles u(body) ∪ u(q \ S), tracking answer variables
// that the unifier equates with constants and the resource variables —
// cur's and the TGD's, renamed apart with prefix — under u.
func buildRewriting(cur cq, mask int, body pattern.GraphPattern, prefix string, resources []string, u unifier, free map[string]bool) (cq, bool) {
	rest := complementAtoms(cur.atoms, mask)
	newAtoms := dedupAtoms(applyGPSubst(append(append(pattern.GraphPattern{}, body...), rest...), u))
	newBound := make(map[string]rdf.Term, len(cur.bound))
	for k, v := range cur.bound {
		newBound[k] = v
	}
	newFree := make([]string, len(cur.free))
	for i, f := range cur.free {
		if _, already := newBound[f]; already {
			newFree[i] = f
			continue
		}
		rep := u.apply(pattern.V(f))
		if rep.IsVar() {
			newFree[i] = rep.Var()
			continue
		}
		// answer variable pinned to a constant by unification
		newBound[f] = rep.Term()
		newFree[i] = f
	}
	if len(newBound) == 0 {
		newBound = nil
	}
	var newResources map[string]bool
	mark := func(v string) { // answer variables are never erased anyway
		if rep := u.apply(pattern.V(v)); rep.IsVar() && !free[rep.Var()] {
			if newResources == nil {
				newResources = make(map[string]bool)
			}
			newResources[rep.Var()] = true
		}
	}
	for v := range cur.resources {
		mark(v)
	}
	for _, v := range resources {
		mark(prefix + v)
	}
	return cq{free: newFree, bound: newBound, atoms: newAtoms, resources: newResources}, true
}

// unifier maps a term-key to its class representative element.
type unifier map[string]pattern.Elem

// tryUnify attempts a piece unification of the selected query atoms with
// the assigned head atoms. It returns nil if unification fails or violates
// the piece conditions for existential variables.
func tryUnify(cur cq, idxs []int, assign []int, head pattern.GraphPattern, exist, free, tgdVars map[string]bool) unifier {
	uf := newUnionFind()
	for k, qi := range idxs {
		qa := cur.atoms[qi]
		ha := head[assign[k]]
		if !uf.unifyElems(qa.S, ha.S) || !uf.unifyElems(qa.P, ha.P) || !uf.unifyElems(qa.O, ha.O) {
			return nil
		}
	}
	inS := make(map[int]bool, len(idxs))
	for _, qi := range idxs {
		inS[qi] = true
	}
	for _, class := range uf.classes() {
		var hasConst bool
		var existCount int
		var otherVars []string
		for _, e := range class {
			switch {
			case !e.IsVar():
				hasConst = true
			case exist[e.Var()]:
				existCount++
			default:
				otherVars = append(otherVars, e.Var())
			}
		}
		if existCount == 0 {
			continue
		}
		// an existential variable's class must hold no constants, no other
		// existentials, and no frontier variables of the TGD
		if hasConst || existCount > 1 {
			return nil
		}
		for _, v := range otherVars {
			if tgdVars[v] {
				return nil // frontier variable unified with an existential
			}
			if free[v] {
				return nil // answer variables cannot be erased
			}
			if cur.resources[v] {
				return nil // a resource variable cannot be a labelled null
			}
			// v must not occur in atoms outside S
			for qi, a := range cur.atoms {
				if inS[qi] {
					continue
				}
				if occurs(a, v) {
					return nil
				}
			}
		}
	}
	return uf.substitution(free, tgdVars)
}

func occurs(a pattern.TriplePattern, v string) bool {
	for _, e := range a.Elems() {
		if e.IsVar() && e.Var() == v {
			return true
		}
	}
	return false
}

// unionFind implements unification over pattern elements.
type unionFind struct {
	parent map[string]string
	elems  map[string]pattern.Elem
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[string]string), elems: make(map[string]pattern.Elem)}
}

func elemKey(e pattern.Elem) string {
	if e.IsVar() {
		return "v:" + e.Var()
	}
	return "c:" + e.Term().String()
}

func (u *unionFind) find(k string) string {
	p, ok := u.parent[k]
	if !ok || p == k {
		if !ok {
			u.parent[k] = k
		}
		return k
	}
	root := u.find(p)
	u.parent[k] = root
	return root
}

// unifyElems unions the classes of a and b, failing on constant clashes.
func (u *unionFind) unifyElems(a, b pattern.Elem) bool {
	ka, kb := elemKey(a), elemKey(b)
	u.elems[ka], u.elems[kb] = a, b
	ra, rb := u.find(ka), u.find(kb)
	if ra == rb {
		return true
	}
	ea, eb := u.elems[ra], u.elems[rb]
	if !ea.IsVar() && !eb.IsVar() {
		return ea.Term() == eb.Term()
	}
	// keep constants as roots so class representatives are constants
	if !ea.IsVar() {
		u.parent[rb] = ra
	} else {
		u.parent[ra] = rb
	}
	return true
}

// classes returns the equivalence classes as element slices.
func (u *unionFind) classes() [][]pattern.Elem {
	groups := make(map[string][]pattern.Elem)
	for k, e := range u.elems {
		groups[u.find(k)] = append(groups[u.find(k)], e)
	}
	out := make([][]pattern.Elem, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}

// substitution builds the substitution mapping each element key to its
// class representative: a constant if present, else an answer variable,
// else a query variable, else a TGD variable.
func (u *unionFind) substitution(free, tgdVars map[string]bool) unifier {
	rep := make(map[string]pattern.Elem)
	for k, e := range u.elems {
		root := u.find(k)
		cur, ok := rep[root]
		if !ok || betterRep(e, cur, free, tgdVars) {
			rep[root] = e
		}
	}
	out := make(unifier, len(u.elems))
	for k := range u.elems {
		out[k] = rep[u.find(k)]
	}
	return out
}

// betterRep prefers constants, then answer variables, then query variables
// over TGD variables.
func betterRep(a, b pattern.Elem, free, tgdVars map[string]bool) bool {
	rank := func(e pattern.Elem) int {
		switch {
		case !e.IsVar():
			return 3
		case free[e.Var()]:
			return 2
		case !tgdVars[e.Var()]:
			return 1
		default:
			return 0
		}
	}
	ra, rb := rank(a), rank(b)
	if ra != rb {
		return ra > rb
	}
	return a.String() < b.String() // deterministic tie-break
}

func (u unifier) apply(e pattern.Elem) pattern.Elem {
	if r, ok := u[elemKey(e)]; ok {
		return r
	}
	return e
}

func applyGPSubst(gp pattern.GraphPattern, u unifier) pattern.GraphPattern {
	out := make(pattern.GraphPattern, len(gp))
	for i, tp := range gp {
		out[i] = pattern.TP(u.apply(tp.S), u.apply(tp.P), u.apply(tp.O))
	}
	return out
}

func renameGP(gp pattern.GraphPattern, prefix string) pattern.GraphPattern {
	ren := func(e pattern.Elem) pattern.Elem {
		if e.IsVar() {
			return pattern.V(prefix + e.Var())
		}
		return e
	}
	out := make(pattern.GraphPattern, len(gp))
	for i, tp := range gp {
		out[i] = pattern.TP(ren(tp.S), ren(tp.P), ren(tp.O))
	}
	return out
}

func subsetIndexes(mask, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func complementAtoms(gp pattern.GraphPattern, mask int) pattern.GraphPattern {
	var out pattern.GraphPattern
	for i, tp := range gp {
		if i < 16 && mask&(1<<i) != 0 {
			continue
		}
		out = append(out, tp)
	}
	return out
}

func dedupAtoms(gp pattern.GraphPattern) pattern.GraphPattern {
	seen := make(map[string]bool, len(gp))
	var out pattern.GraphPattern
	for _, tp := range gp {
		k := tp.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, tp)
		}
	}
	return out
}

// canonicalKey renders a cq with canonically renamed variables for
// duplicate elimination. Atoms are sorted by their variable-blind skeleton,
// then non-answer variables are numbered in order of first occurrence.
// Isomorphic duplicates with ambiguous skeletons may receive different keys
// — this only costs extra work, never answers.
func canonicalKey(q cq) string {
	free := make(map[string]bool, len(q.free))
	for _, f := range q.free {
		free[f] = true
	}
	atoms := append(pattern.GraphPattern(nil), q.atoms...)
	skeleton := func(tp pattern.TriplePattern) string {
		render := func(e pattern.Elem) string {
			if e.IsVar() {
				if free[e.Var()] {
					return "?" + e.Var()
				}
				return "_"
			}
			return e.Term().String()
		}
		return render(tp.S) + " " + render(tp.P) + " " + render(tp.O)
	}
	sort.Slice(atoms, func(i, j int) bool {
		si, sj := skeleton(atoms[i]), skeleton(atoms[j])
		if si != sj {
			return si < sj
		}
		return atoms[i].String() < atoms[j].String()
	})
	names := make(map[string]string)
	counter := 0
	renderFinal := func(e pattern.Elem) string {
		if !e.IsVar() {
			return e.Term().String()
		}
		v := e.Var()
		if free[v] {
			return "?" + v
		}
		if n, ok := names[v]; ok {
			return n
		}
		counter++
		n := fmt.Sprintf("_v%d", counter)
		names[v] = n
		return n
	}
	var b strings.Builder
	b.WriteString(strings.Join(q.free, ","))
	b.WriteString("|")
	boundKeys := make([]string, 0, len(q.bound))
	for v := range q.bound {
		boundKeys = append(boundKeys, v)
	}
	sort.Strings(boundKeys)
	for _, v := range boundKeys {
		b.WriteString(v + "=" + q.bound[v].String() + ";")
	}
	b.WriteString("|")
	for _, tp := range atoms {
		b.WriteString(renderFinal(tp.S))
		b.WriteByte(' ')
		b.WriteString(renderFinal(tp.P))
		b.WriteByte(' ')
		b.WriteString(renderFinal(tp.O))
		b.WriteByte('.')
	}
	// resource marks restrict later steps, so a marked copy of a body is
	// a different rewriting from an unmarked one
	var marked []string
	for v := range q.resources {
		if n, ok := names[v]; ok {
			marked = append(marked, n)
		}
	}
	if len(marked) > 0 {
		sort.Strings(marked)
		b.WriteString("|" + strings.Join(marked, ","))
	}
	return b.String()
}
