package federation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// joinOrder's contract, on random bodies (paths, stars, ground and
// disconnected patterns, shuffled): the output is a permutation of the
// input that starts at a pattern with the fewest variable positions, never
// places a
// pattern sharing no variable with its predecessors while some unplaced
// pattern does, and among the connected candidates takes one with the
// fewest unbound variable positions.
func TestJoinOrderConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	elem := func() pattern.Elem {
		if rng.Intn(4) == 0 {
			return pattern.C(rdf.IRI(fmt.Sprintf("http://e/c%d", rng.Intn(3))))
		}
		return pattern.V(fmt.Sprintf("v%d", rng.Intn(6)))
	}
	unbound := func(tp pattern.TriplePattern, bound map[string]bool) (n int, connected bool) {
		for _, e := range tp.Elems() {
			if e.IsVar() && bound[e.Var()] {
				connected = true
			} else if e.IsVar() {
				n++
			}
		}
		return n, connected || n == 0
	}
	for trial := 0; trial < 2000; trial++ {
		gp := make(pattern.GraphPattern, 1+rng.Intn(5))
		for i := range gp {
			gp[i] = pattern.TP(elem(), pattern.C(rdf.IRI(fmt.Sprintf("http://e/p%d", i))), elem())
		}
		out := joinOrder(gp)
		if len(out) != len(gp) {
			t.Fatalf("%v: ordered into %v", gp, out)
		}
		rest := make(map[pattern.TriplePattern]bool, len(gp)) // predicates are distinct, so patterns are
		for _, tp := range gp {
			rest[tp] = true
		}
		bound := make(map[string]bool)
		for k, tp := range out {
			if !rest[tp] {
				t.Fatalf("%v: %v is not a permutation", gp, out)
			}
			n, connected := unbound(tp, bound)
			for other := range rest {
				on, oc := unbound(other, bound)
				if (oc && !connected) || (oc == connected && on < n) {
					t.Fatalf("%v: position %d of %v takes %v (connected=%v, %d unbound) over %v (connected=%v, %d unbound)",
						gp, k, out, tp, connected, n, other, oc, on)
				}
			}
			delete(rest, tp)
			for _, v := range tp.Vars() {
				bound[v] = true
			}
		}
	}
}
