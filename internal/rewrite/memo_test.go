package rewrite

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/rdf"
)

// memoPreds and memoConsts are the vocabulary of the random memo cases:
// the first memoMapped constants are the only ones mappings may mention.
var (
	memoPreds  = []rdf.Term{rdf.IRI("http://e/p0"), rdf.IRI("http://e/p1"), rdf.IRI("http://e/p2"), rdf.IRI("http://e/p3")}
	memoConsts = []rdf.Term{
		rdf.IRI("http://e/c0"), rdf.IRI("http://e/c1"), rdf.IRI("http://e/c2"),
		rdf.IRI("http://e/c3"), rdf.IRI("http://e/c4"), rdf.Literal("v0"), rdf.Literal("v1"),
	}
)

const memoMapped = 3

// randomLinearSystem draws a linear mapping set over memoPreds: renames,
// inversions, GMAs whose target joins two patterns through an existential
// variable (Figure 1's shape), GMAs with a constant on either side, and at
// most one equivalence among the mapped constants: every variable position
// may take every equivalent constant, so more of them (or one on a
// predicate) multiply a 3-pattern rewriting past any test budget.
func randomLinearSystem(rng *rand.Rand) *core.System {
	sys := core.NewSystem()
	pred := func() pattern.Elem { return pattern.C(memoPreds[rng.Intn(len(memoPreds))]) }
	x, y, z := pattern.V("x"), pattern.V("y"), pattern.V("z")
	for n := 1 + rng.Intn(3); n > 0; n-- {
		from := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pred(), y)})
		var to pattern.Query
		switch rng.Intn(4) {
		case 0:
			to = pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pred(), y)})
		case 1:
			to = pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(y, pred(), x)})
		case 2:
			to = pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pred(), z), pattern.TP(z, pred(), y)})
		default:
			c := pattern.C(memoConsts[rng.Intn(memoMapped)])
			from = pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(x, pred(), c)})
			to = pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(x, pred(), z)})
			if rng.Intn(2) == 0 {
				from, to = pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(x, pred(), y)}),
					pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(x, pred(), c)})
			}
		}
		if err := sys.AddMapping(core.GraphMappingAssertion{From: from, To: to}); err != nil {
			panic(err)
		}
	}
	if rng.Intn(2) == 0 {
		a, b := memoConsts[rng.Intn(memoMapped)], memoConsts[rng.Intn(memoMapped)]
		if err := sys.AddEquivalence(a, b); err != nil {
			panic(err)
		}
	}
	return sys
}

// randomMemoQuery draws a 1–3 pattern path query with a non-answer
// variable and constants from the whole pool, so mapped and unmapped ones
// mix, repeat and include literals.
func randomMemoQuery(rng *rand.Rand) pattern.Query {
	pred := func() pattern.Elem { return pattern.C(memoPreds[rng.Intn(len(memoPreds))]) }
	c := func() pattern.Elem { return pattern.C(memoConsts[rng.Intn(len(memoConsts))]) }
	iri := func() pattern.Elem { return pattern.C(memoConsts[rng.Intn(5)]) }
	x, y, z := pattern.V("x"), pattern.V("y"), pattern.V("z")
	switch rng.Intn(4) {
	case 0:
		return pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(x, pred(), c())})
	case 1:
		return pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(x, pred(), y), pattern.TP(y, pred(), c())})
	case 2:
		k := iri()
		return pattern.MustQuery([]string{"y"}, pattern.GraphPattern{pattern.TP(k, pred(), y), pattern.TP(y, pred(), k)})
	default:
		return pattern.MustQuery([]string{"x", "z"}, pattern.GraphPattern{
			pattern.TP(iri(), pred(), x), pattern.TP(x, pred(), y), pattern.TP(y, pred(), z),
		})
	}
}

// renameUnmapped is q with every constant that sys's mappings do not
// mention renamed injectively to a fresh constant of the same kind: a
// query of the same shape with different constants.
func renameUnmapped(q pattern.Query, sys *core.System, tag string) pattern.Query {
	kept := make(map[rdf.Term]bool)
	for _, t := range SystemTGDs(sys) {
		for _, c := range append(t.Body.Constants(), t.Head.Constants()...) {
			kept[c] = true
		}
	}
	ren := func(e pattern.Elem) pattern.Elem {
		if e.IsVar() || kept[e.Term()] {
			return e
		}
		if t := e.Term(); t.IsLiteral() {
			return pattern.C(rdf.Literal(tag + t.Value()))
		}
		return pattern.C(rdf.IRI(e.Term().Value() + "/" + tag))
	}
	out := pattern.Query{Free: q.Free, GP: make(pattern.GraphPattern, len(q.GP))}
	for i, tp := range q.GP {
		out.GP[i] = pattern.TP(ren(tp.S), ren(tp.P), ren(tp.O))
	}
	return out
}

// covers reports that every answer of s is an answer of g on every
// database: g's answer constants agree with s's, and subsumes finds the
// homomorphism.
func covers(g, s Disjunct) bool {
	for i, f := range g.Query.Free {
		if c, ok := g.Bound[f]; ok {
			if sc, ok := s.Bound[s.Query.Free[i]]; !ok || sc != c {
				return false
			}
		}
	}
	return subsumes(cq{free: g.Query.Free, bound: g.Bound, atoms: g.Query.GP},
		cq{free: s.Query.Free, bound: s.Bound, atoms: s.Query.GP})
}

// equivalentUCQs reports the first disjunct of one rewriting that no
// disjunct of the other covers, or "" when the two are equivalent UCQs. A
// disjunct that the other side holds verbatim is covered without a
// homomorphism search.
func equivalentUCQs(a, b *Result) string {
	for _, pair := range [][2]*Result{{a, b}, {b, a}} {
		verbatim := make(map[string]bool, pair[1].Size())
		for _, g := range pair[1].Disjuncts {
			verbatim[g.String()] = true
		}
		for _, s := range pair[0].Disjuncts {
			covered := verbatim[s.String()]
			for _, g := range pair[1].Disjuncts {
				if covered {
					break
				}
				covered = covers(g, s)
			}
			if !covered {
				return s.String()
			}
		}
	}
	return ""
}

// The memo's answer is the rewriting: on random linear systems, the
// instantiated memo result and a direct Rewrite of the same concrete query
// are equivalent UCQs with the same truncation verdict — on the miss that
// fills the memo, on a hit for another query of the same shape, and after
// AddMapping, when the next answer must include the new mapping.
func TestMemoMatchesRewriteProperty(t *testing.T) {
	check := func(m *Memo, q pattern.Query, sys *core.System, wantHit bool, step string) string {
		got, hit, err := m.Rewrite(q, sys, Options{})
		if err != nil {
			return fmt.Sprintf("%s: memo: %v", step, err)
		}
		want, err := Rewrite(q, sys, Options{})
		if err != nil {
			return fmt.Sprintf("%s: rewrite: %v", step, err)
		}
		if hit != wantHit {
			return fmt.Sprintf("%s: hit = %v, want %v", step, hit, wantHit)
		}
		if got.Truncated != want.Truncated {
			return fmt.Sprintf("%s: truncated = %v, direct %v", step, got.Truncated, want.Truncated)
		}
		if d := equivalentUCQs(got, want); d != "" {
			return fmt.Sprintf("%s: disjunct %s has no counterpart (memo %d, direct %d disjuncts)",
				step, d, got.Size(), want.Size())
		}
		return ""
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomLinearSystem(rng)
		q := randomMemoQuery(rng)
		var m Memo
		fail := check(&m, q, sys, false, "miss")
		if fail == "" {
			fail = check(&m, renameUnmapped(q, sys, "second"), sys, true, "hit")
		}
		if fail == "" {
			// a new mapping into the query's first predicate from a fresh
			// one: the next answer must rewrite into it
			fresh := rdf.IRI("http://e/fresh")
			x, y := pattern.V("x"), pattern.V("y")
			err := sys.AddMapping(core.GraphMappingAssertion{
				From: pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pattern.C(fresh), y)}),
				To:   pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, q.GP[0].P, y)}),
			})
			if err != nil {
				t.Fatal(err)
			}
			q3 := renameUnmapped(q, sys, "third")
			if fail = check(&m, q3, sys, false, "after AddMapping"); fail == "" {
				res, _, _ := m.Rewrite(q3, sys, Options{})
				if !mentions(res, fresh) {
					fail = "after AddMapping: no disjunct uses the new mapping's source predicate"
				}
			}
		}
		if fail != "" {
			t.Logf("seed %d: %s\nquery %v\nmappings %v %v", seed, fail, q, sys.G, sys.E)
			return false
		}
		return true
	}
	n := 60
	if testing.Short() {
		n = 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

func mentions(r *Result, c rdf.Term) bool {
	for _, d := range r.Disjuncts {
		for _, k := range d.Query.GP.Constants() {
			if k == c {
				return true
			}
		}
	}
	return false
}

// Shapes keep the equality pattern of the abstracted constants: a query
// repeating one unmapped constant and one mentioning two different ones
// are different shapes. They must be: only the repeated constant lets one
// piece unifier fold both patterns into the mapping's head, pinning ?x to
// it — a fifth disjunct the other shape does not have.
func TestMemoKeepsEqualityPattern(t *testing.T) {
	sys := core.NewSystem()
	p, q := rdf.IRI("http://e/p"), rdf.IRI("http://e/q")
	x, y := pattern.V("x"), pattern.V("y")
	if err := sys.AddMapping(core.GraphMappingAssertion{
		From: pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pattern.C(q), y)}),
		To:   pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pattern.C(p), y)}),
	}); err != nil {
		t.Fatal(err)
	}
	a, b := pattern.C(rdf.IRI("http://e/a")), pattern.C(rdf.IRI("http://e/b"))
	same := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(a, pattern.C(p), x), pattern.TP(x, pattern.C(p), a)})
	diff := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(a, pattern.C(p), x), pattern.TP(x, pattern.C(p), b)})
	var m Memo
	sizes := []int{5, 4, 5}
	for i, query := range []pattern.Query{same, diff, same} {
		got, hit, err := m.Rewrite(query, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if wantHit := i == 2; hit != wantHit {
			t.Errorf("query %d: hit = %v, want %v", i, hit, wantHit)
		}
		want, _ := Rewrite(query, sys, Options{})
		if d := equivalentUCQs(got, want); d != "" || got.Size() != sizes[i] {
			t.Errorf("query %d: %d disjuncts, want %d; %q uncovered", i, got.Size(), sizes[i], d)
		}
	}
}

// A hit hands out fresh disjuncts: changing the returned rewriting does
// not change what the next query of the shape gets.
func TestMemoResultsAreFresh(t *testing.T) {
	sys := core.NewSystem()
	p := rdf.IRI("http://e/p")
	q := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(pattern.C(rdf.IRI("http://e/a")), pattern.C(p), pattern.V("x"))})
	var m Memo
	first, _, _ := m.Rewrite(q, sys, Options{})
	first.Disjuncts[0].Query.GP[0].P = pattern.C(rdf.IRI("http://e/clobbered"))
	first.Disjuncts[0].Query.Free[0] = "clobbered"
	second, hit, _ := m.Rewrite(q, sys, Options{})
	if !hit || second.Disjuncts[0].Query.GP[0].P.Term() != p || second.Disjuncts[0].Query.Free[0] != "x" {
		t.Fatalf("hit = %v, second rewriting %v: the first caller's edit leaked into the memo", hit, second.Disjuncts[0])
	}
}

// The memo holds at most memoCapacity disjuncts: filling it past the bound
// starts over, and every query still gets its rewriting.
func TestMemoBounded(t *testing.T) {
	sys := core.NewSystem()
	var m Memo
	p := pattern.C(rdf.IRI("http://e/p"))
	for i := 0; i < memoCapacity+10; i++ {
		v := fmt.Sprintf("x%d", i) // a new shape per query
		q := pattern.MustQuery([]string{v}, pattern.GraphPattern{pattern.TP(pattern.V(v), p, pattern.C(rdf.IRI("http://e/a")))})
		res, hit, err := m.Rewrite(q, sys, Options{})
		if err != nil || hit || res.Size() != 1 {
			t.Fatalf("query %d: size %d, hit %v, err %v", i, res.Size(), hit, err)
		}
		if m.held > memoCapacity || m.held != len(m.entries) {
			t.Fatalf("query %d: memo holds %d disjuncts in %d entries", i, m.held, len(m.entries))
		}
	}
}

// Concurrent callers share one Memo: misses and hits on a few shapes race
// each other and every caller gets its own query's rewriting.
func TestMemoConcurrent(t *testing.T) {
	sys := core.NewSystem()
	p, q := rdf.IRI("http://e/p"), rdf.IRI("http://e/q")
	x, y := pattern.V("x"), pattern.V("y")
	if err := sys.AddMapping(core.GraphMappingAssertion{
		From: pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pattern.C(q), y)}),
		To:   pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{pattern.TP(x, pattern.C(p), y)}),
	}); err != nil {
		t.Fatal(err)
	}
	var m Memo
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := pattern.C(rdf.IRI(fmt.Sprintf("http://e/a%d", (g+i)%7)))
				query := pattern.MustQuery([]string{"x"}, pattern.GraphPattern{pattern.TP(a, pattern.C(p), x)})
				if i%2 == 1 {
					query.GP = append(query.GP, pattern.TP(x, pattern.C(p), y))
				}
				got, _, err := m.Rewrite(query, sys, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := Rewrite(query, sys, Options{})
				if d := equivalentUCQs(got, want); d != "" {
					t.Errorf("goroutine %d query %d: %s uncovered", g, i, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
