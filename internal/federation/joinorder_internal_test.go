package federation

import (
	"fmt"
	"math/rand"
	"strings"
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

// renderPatternQuery names variables canonically: ?v0 ?v1 … by first
// position. Rewriting-internal names (g<N>·b_y) never reach the text, and
// alpha-equivalent patterns — extension fetches and VALUES probes alike —
// render to one text, whose result each reads under its own names.
func TestRenderCanonicalNames(t *testing.T) {
	p, o := pattern.C(rdf.IRI("http://e/p")), rdf.IRI("http://e/o")
	a := pattern.TP(pattern.V("g7·b_y"), p, pattern.V("x"))
	b := pattern.TP(pattern.V("s"), p, pattern.V("g2·z"))
	textA, varsA, err := renderPatternQuery(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	textB, varsB, _ := renderPatternQuery(b, nil)
	if textA != textB || textA != "SELECT ?v0 ?v1 WHERE { ?v0 <http://e/p> ?v1 }" {
		t.Errorf("texts differ or are not canonical:\n%s\n%s", textA, textB)
	}
	if fmt.Sprint(varsA, varsB) != "[g7·b_y x] [s g2·z]" {
		t.Errorf("vars = %v %v, want each pattern's own names by position", varsA, varsB)
	}
	probeA, _, _ := renderPatternQuery(a, []pattern.Binding{{"x": o}})
	probeB, _, _ := renderPatternQuery(b, []pattern.Binding{{"g2·z": o}})
	if probeA != probeB || strings.Contains(probeA, "·") {
		t.Errorf("probe texts differ or leak a rewriting name:\n%s\n%s", probeA, probeB)
	}

	rows := extension{vars: varsA, rows: []pattern.Binding{{"g7·b_y": rdf.IRI("http://e/s1"), "x": o}}}
	if got := rows.as(varsA); &got[0] != &rows.rows[0] {
		t.Error("the leader's own names must read the cached rows without a copy")
	}
	got := rows.as(varsB)
	if len(got) != 1 || got[0]["s"] != rdf.IRI("http://e/s1") || got[0]["g2·z"] != o || len(got[0]) != 2 {
		t.Errorf("relabelled rows = %v", got)
	}
}
