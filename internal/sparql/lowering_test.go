package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

// refEval is the reference the lowering is pinned to: the slice evaluator
// the operator tree replaced. BGPs evaluate as Definition 1 states
// (pattern.EvalNaive), a group joins its children in order (pattern.Join),
// OPTIONAL is a nested-loop left join of compatible mappings, UNION
// concatenates its alternatives, VALUES is its rows, and a group's
// filters select from its joined solutions.
func refEval(g rdf.Source, e Expr) []pattern.Binding {
	switch x := e.(type) {
	case *Group:
		sols := pattern.EvalNaive(g, x.BGP)
		for _, child := range x.Children {
			if opt, ok := child.(*Optional); ok {
				sols = refLeftJoin(sols, refEval(g, opt.Inner))
			} else {
				sols = pattern.Join(sols, refEval(g, child))
			}
		}
		var out []pattern.Binding
	next:
		for _, mu := range sols {
			for _, f := range x.Filters {
				if !f.Holds(mu) {
					continue next
				}
			}
			out = append(out, mu)
		}
		return out
	case *Union:
		var out []pattern.Binding
		for _, alt := range x.Alternatives {
			out = append(out, refEval(g, alt)...)
		}
		return out
	case *Optional:
		return refLeftJoin([]pattern.Binding{{}}, refEval(g, x.Inner))
	default:
		return e.(*Values).Bindings()
	}
}

func refLeftJoin(left, right []pattern.Binding) []pattern.Binding {
	var out []pattern.Binding
	for _, l := range left {
		matched := false
		for _, r := range right {
			if pattern.Compatible(l, r) {
				out = append(out, pattern.Union(l, r))
				matched = true
			}
		}
		if !matched {
			out = append(out, l)
		}
	}
	return out
}

// sizeBound over-approximates how many rows evaluating e can hold at any
// step, so the checks below skip the rare random query whose cross
// products would take seconds rather than test anything.
func sizeBound(g rdf.Source, e Expr) float64 {
	switch x := e.(type) {
	case *Group:
		n := 1.0
		for _, tp := range x.BGP {
			n *= float64(max(1, len(pattern.EvalTriplePattern(g, tp))))
		}
		for _, c := range x.Children {
			n *= max(1, sizeBound(g, c))
		}
		return n
	case *Union:
		n := 0.0
		for _, alt := range x.Alternatives {
			n += sizeBound(g, alt)
		}
		return n
	case *Optional:
		return sizeBound(g, x.Inner)
	default:
		return float64(len(e.(*Values).Rows))
	}
}

const maxRows = 20000

// checkAgainstReference evaluates q on g through EvalCtx and a drained
// EvalStream and compares both with the reference, as bags of sorted rows
// (ASK: the verdict). Under LIMIT the stream keeps rows in production
// order, so it is held only to the row count.
func checkAgainstReference(t *testing.T, q *Query, g rdf.Source) {
	t.Helper()
	want := q.assemble(refEval(g, q.Where))
	got := q.Eval(g)
	if !sameResult(got, want) {
		t.Fatalf("EvalCtx diverges from the reference on %s\n got %v %v\nwant %v %v", q, got.True, got.Rows, want.True, want.Rows)
	}
	rs, err := q.EvalStream(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	streamed := &Result{Form: q.Form, Vars: rs.Vars, True: rs.True}
	for {
		row, ok := rs.Next()
		if !ok {
			break
		}
		streamed.Rows = append(streamed.Rows, row)
	}
	if q.Limit > 0 {
		if len(streamed.Rows) != len(want.Rows) {
			t.Fatalf("EvalStream under LIMIT kept %d rows, the reference %d, on %s", len(streamed.Rows), len(want.Rows), q)
		}
		return
	}
	sortRows(streamed.Rows)
	if !sameResult(streamed, want) {
		t.Fatalf("EvalStream diverges from the reference on %s\n got %v %v\nwant %v %v", q, streamed.True, streamed.Rows, want.True, want.Rows)
	}
}

func sortRows(rows []pattern.Tuple) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
}

func sameResult(a, b *Result) bool {
	if a.Form != b.Form || a.True != b.True || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			return false
		}
	}
	return true
}

// lowVocab is the random queries' vocabulary: few variables and constants,
// so joins, OPTIONAL matches, UNDEF slots and FILTER comparisons meet often.
var (
	lowVars  = []string{"a", "b", "c", "d"}
	lowPreds = []rdf.Term{rdf.IRI("http://e/p"), rdf.IRI("http://e/q"), rdf.IRI("http://e/r")}
	lowNodes = []rdf.Term{rdf.IRI("http://e/n0"), rdf.IRI("http://e/n1"), rdf.IRI("http://e/n2"), rdf.Literal("1"), rdf.Blank("b0")}
)

func randomLowGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 8 + rng.Intn(12); i > 0; i-- {
		s := lowNodes[rng.Intn(3)]
		if rng.Intn(5) == 0 {
			s = rdf.Blank("b0")
		}
		g.Add(rdf.Triple{S: s, P: lowPreds[rng.Intn(len(lowPreds))], O: lowNodes[rng.Intn(len(lowNodes))]})
	}
	return g
}

func randomElem(rng *rand.Rand) pattern.Elem {
	if rng.Intn(4) == 0 {
		return pattern.C(lowNodes[rng.Intn(3)])
	}
	return pattern.V(lowVars[rng.Intn(len(lowVars))])
}

func randomGroup(rng *rand.Rand, depth int) *Group {
	g := &Group{}
	for i := rng.Intn(3); i > 0; i-- {
		p := pattern.C(lowPreds[rng.Intn(len(lowPreds))])
		if rng.Intn(6) == 0 {
			p = pattern.V(lowVars[rng.Intn(len(lowVars))])
		}
		g.BGP = append(g.BGP, pattern.TP(randomElem(rng), p, randomElem(rng)))
	}
	if depth > 0 {
		for i := rng.Intn(3); i > 0; i-- {
			g.Children = append(g.Children, randomChild(rng, depth-1))
		}
	}
	if rng.Intn(3) == 0 {
		g.Filters = append(g.Filters, Cond{Left: pattern.V(lowVars[rng.Intn(len(lowVars))]), Right: randomElem(rng), Neq: rng.Intn(2) == 0})
	}
	return g
}

func randomChild(rng *rand.Rand, depth int) Expr {
	switch rng.Intn(4) {
	case 0:
		return randomGroup(rng, depth)
	case 1:
		return &Union{Alternatives: []Expr{randomGroup(rng, depth), randomGroup(rng, depth)}}
	case 2:
		return &Optional{Inner: randomGroup(rng, depth)}
	default:
		v := &Values{}
		for _, i := range rng.Perm(len(lowVars))[:1+rng.Intn(2)] {
			v.Names = append(v.Names, lowVars[i])
		}
		for r := rng.Intn(4); r > 0; r-- {
			row := make(pattern.Tuple, len(v.Names))
			for j := range row {
				if rng.Intn(3) > 0 { // else UNDEF
					row[j] = lowNodes[rng.Intn(len(lowNodes)-1)]
				}
			}
			v.Rows = append(v.Rows, row)
		}
		return v
	}
}

// TestLoweringMatchesReference: on random graphs, random expression trees
// of depth ≤ 3 — BGPs, nested groups, UNION, OPTIONAL, VALUES with UNDEF,
// FILTER = and != — answer through the operator tree exactly as through
// the reference, one-shot and streamed.
func TestLoweringMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomLowGraph(rng)
		q := &Query{Where: randomGroup(rng, 3), Distinct: rng.Intn(3) == 0}
		switch rng.Intn(4) {
		case 0:
			q.Form = FormAsk
		case 1:
			q.Star = true
		default:
			q.Vars = []string{lowVars[rng.Intn(len(lowVars))], lowVars[rng.Intn(len(lowVars))]}
		}
		if sizeBound(g, q.Where) > maxRows {
			return true
		}
		checkAgainstReference(t, q, g)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// evalGraph is FuzzSPARQLEval's fixed 25-triple graph, over the IRIs and
// literals of the round-trip corpus.
func evalGraph() *rdf.Graph {
	return turtle.MustParseGraph(`
@prefix e: <http://e/> .
e:a e:p "1" , e:b , "v"@en , 42 , e:a .
e:b e:p e:c , "1" ; e:q e:b , e:a , 42 .
e:c e:q e:b , e:c ; e:r e:a , "x" .
_:n e:p e:a ; e:q _:n ; e:r e:c .
e:a e:q e:c ; e:r _:n , e:b .
e:d e:p e:d ; e:q "v"@en ; e:r 42 , "1" , e:d .
`)
}

// FuzzSPARQLEval evaluates every query the parser accepts on a fixed graph
// and holds the answer to the reference's. It starts from the round-trip
// fuzzer's corpus.
func FuzzSPARQLEval(f *testing.F) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzSPARQLRoundTrip/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\nstring(")
		text, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		f.Add(text)
	}
	g := evalGraph()
	if n := g.Len(); n != 25 {
		f.Fatalf("evaluation graph has %d triples, want 25", n)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text, nil)
		if err != nil || sizeBound(g, q.Where) > maxRows {
			return
		}
		checkAgainstReference(t, q, g)
	})
}

// countingSource counts the triples of each predicate that scans read.
type countingSource struct {
	*rdf.Snapshot
	read map[rdf.Term]*atomic.Int64
}

func (c *countingSource) counted(fn func(rdf.Triple) bool) func(rdf.Triple) bool {
	return func(t rdf.Triple) bool {
		if n, ok := c.read[t.P]; ok {
			n.Add(1)
		}
		return fn(t)
	}
}

func (c *countingSource) Match(s, p, o *rdf.Term, fn func(rdf.Triple) bool) {
	c.Snapshot.Match(s, p, o, c.counted(fn))
}

func (c *countingSource) MatchShard(i int, s, p, o *rdf.Term, fn func(rdf.Triple) bool) {
	c.Snapshot.MatchShard(i, s, p, o, c.counted(fn))
}

// Every query shape stops its scans early: ASK at its first row, LIMIT at
// its cap, whether the scan sits under a UNION or on the probe side of an
// OPTIONAL.
func TestEvalStreamStopsEarlyOnEveryShape(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "e:s%d e:p e:o%d ; e:q e:o%d .\ne:o%d e:r e:x%d .\n", i, i, i, i, i)
	}
	g := turtle.MustParseGraph(b.String())
	p, q := rdf.IRI("http://e/p"), rdf.IRI("http://e/q")
	for _, c := range []struct {
		text     string
		streamed []rdf.Term
	}{
		{`PREFIX e: <http://e/> ASK { { ?s e:p ?o } UNION { ?s e:q ?o } }`, []rdf.Term{p, q}},
		{`PREFIX e: <http://e/> SELECT ?s WHERE { { ?s e:p ?o } UNION { ?s e:q ?o } } LIMIT 1`, []rdf.Term{p, q}},
		{`PREFIX e: <http://e/> SELECT ?s ?x WHERE { ?s e:p ?o OPTIONAL { ?o e:r ?x } } LIMIT 1`, []rdf.Term{p}},
	} {
		src := &countingSource{Snapshot: g.Snapshot(), read: map[rdf.Term]*atomic.Int64{p: {}, q: {}}}
		rs, err := MustParse(c.text).EvalStream(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			if _, ok := rs.Next(); !ok {
				break
			}
			rows++
		}
		rs.Close()
		if !rs.True && rows != 1 {
			t.Errorf("%s: ASK false or %d rows, want one row", c.text, rows)
		}
		for _, pred := range c.streamed {
			if n := src.read[pred].Load(); n >= 1000 {
				t.Errorf("%s: read %d of the 1000 %s triples", c.text, n, pred)
			}
		}
	}
}

// A one-shot ASK decides on the first row: EvalCtx opens the tree, takes
// one row and closes it instead of draining every match.
func TestEvalCtxAskReadsOneRow(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "e:s%d e:p e:o%d .\n", i, i)
	}
	g := turtle.MustParseGraph(b.String())
	p := rdf.IRI("http://e/p")
	src := &countingSource{Snapshot: g.Snapshot(), read: map[rdf.Term]*atomic.Int64{p: {}}}
	res, err := MustParse(`PREFIX e: <http://e/> ASK { ?s e:p ?o }`).EvalCtx(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.True {
		t.Fatal("ASK false, want true")
	}
	if n := src.read[p].Load(); n > 1 {
		t.Errorf("ASK read %d of the 1000 e:p triples, want 1", n)
	}
}

// A fan-out scan buffers every shard's matches at Open, so a consumer that
// stops early must not get one: on a sharded graph with parallelism to
// spare, ASK and LIMIT 1 over an object-only pattern big enough to fan out
// read a handful of its rows, one-shot and streamed.
func TestEarlyStopSkipsFanoutScans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 6000
	g := rdf.NewGraphSharded(8)
	p, o := rdf.IRI("http://e/p"), rdf.IRI("http://e/o")
	for i := 0; i < n; i++ {
		g.Add(rdf.Triple{S: rdf.IRI("http://e/s" + strconv.Itoa(i)), P: p, O: o})
	}
	ask := MustParse(`ASK { ?s ?p <http://e/o> }`)
	limit := MustParse(`SELECT ?s WHERE { ?s ?p <http://e/o> } LIMIT 1`)
	for _, c := range []struct {
		name string
		run  func(rdf.Source) (bool, error)
	}{
		{"EvalCtx ASK", func(src rdf.Source) (bool, error) {
			res, err := ask.EvalCtx(context.Background(), src)
			return res.True, err
		}},
		{"EvalStream ASK", func(src rdf.Source) (bool, error) {
			rs, err := ask.EvalStream(context.Background(), src)
			if err != nil {
				return false, err
			}
			return rs.True, nil
		}},
		{"EvalStream LIMIT 1", func(src rdf.Source) (bool, error) {
			rs, err := limit.EvalStream(context.Background(), src)
			if err != nil {
				return false, err
			}
			defer rs.Close()
			_, ok := rs.Next()
			return ok, nil
		}},
	} {
		src := &countingSource{Snapshot: g.Snapshot(), read: map[rdf.Term]*atomic.Int64{p: {}}}
		found, err := c.run(src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !found {
			t.Errorf("%s: no row, want one", c.name)
		}
		if got := src.read[p].Load(); got > 10 {
			t.Errorf("%s: read %d of the %d triples, want a handful", c.name, got, n)
		}
	}
}
