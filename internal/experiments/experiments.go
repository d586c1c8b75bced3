// Package experiments implements the reproduction harness: one function per
// paper artifact (listings, theorems and propositions, E1–E10) plus the
// design-choice ablations (A1–A5). Each experiment returns a Table that
// cmd/rpsbench prints; the root bench_test.go wraps the same functions as
// testing.B benchmarks. Performance is measured by the repository
// benchmark under benchmark/, not here.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
	"repro/internal/sparql"
	"repro/internal/tgd"
	"repro/internal/workload"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries observations (shape checks, pass/fail annotations).
	Notes []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// E1Listing1 reproduces Figures 1–2 and Listing 1: the certain answers of
// the Example 1 query over the Figure 1 peer system, with and without
// redundancy.
func E1Listing1() (*Table, error) {
	sys := workload.Figure1System()
	ns := workload.FilmNamespaces()
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		return nil, err
	}
	q := workload.Example1Query()
	got := u.CertainAnswers(q)
	noRed := u.CertainAnswersNoRedundancy(q)

	t := &Table{
		ID:      "E1",
		Title:   "Listing 1 — certain answers of the Example 1 query (Figure 1 system)",
		Columns: []string{"?x", "?y", "in paper"},
	}
	want := pattern.NewTupleSet()
	for _, tu := range workload.Listing1Expected() {
		want.Add(tu)
	}
	for _, tu := range got.Sorted() {
		mark := "yes"
		if !want.Has(tu) {
			mark = "NO (extra)"
		}
		t.Rows = append(t.Rows, []string{ns.ShortenTerm(tu[0]), ns.ShortenTerm(tu[1]), mark})
	}
	match := got.Equal(want)
	t.Notes = append(t.Notes,
		fmt.Sprintf("answers match Listing 1 exactly: %v (%d rows)", match, got.Len()),
		fmt.Sprintf("universal solution: %d stored + %d inferred triples, %d labelled nulls",
			sys.StoredDatabase().Len(), u.Stats.TriplesAdded, u.Stats.FreshBlanks))
	t.Notes = append(t.Notes, "result without redundancy:")
	for _, tu := range noRed {
		t.Notes = append(t.Notes, fmt.Sprintf("  %s  %s", ns.ShortenTerm(tu[0]), ns.ShortenTerm(tu[1])))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("redundancy-free rows: %d (paper: 3)", len(noRed)))
	if !match || len(noRed) != 3 {
		t.Notes = append(t.Notes, "REPRODUCTION MISMATCH")
	}
	return t, nil
}

// E2Listing2 reproduces Listing 2: the boolean query for the tuple
// (DB1:Toby_Maguire, "39") is false over the stored database and true after
// rewriting; the rewritten query is a UNION containing the
// foaf:Toby_Maguire disjunct the paper displays.
func E2Listing2() (*Table, error) {
	sys := workload.Figure1System()
	ns := workload.FilmNamespaces()
	q := workload.Example1Query()
	tuple := pattern.Tuple{rdf.IRI(workload.NSDB1 + "Toby_Maguire"), rdf.Literal("39")}
	bq, err := q.Substitute(tuple)
	if err != nil {
		return nil, err
	}
	stored := sys.StoredDatabase()
	before := plan.Ask(stored, bq.GP)
	start := time.Now()
	res, err := rewrite.Rewrite(bq, sys, rewrite.Options{})
	if err != nil {
		return nil, err
	}
	rwTime := time.Since(start)
	after := res.Ask(stored)

	t := &Table{
		ID:      "E2",
		Title:   "Listing 2 — boolean query rewriting for (DB1:Toby_Maguire, \"39\")",
		Columns: []string{"query", "verdict", "paper"},
		Rows: [][]string{
			{"original ASK over stored DB", fmt.Sprintf("%v", before), "false"},
			{"rewritten UNION over stored DB", fmt.Sprintf("%v", after), "true"},
		},
	}
	t.Notes = append(t.Notes, fmt.Sprintf("UCQ: %d disjuncts, saturated=%v, rewrite time %s",
		res.Size(), !res.Truncated, ms(rwTime)))
	// render the two-disjunct union the paper displays: the original body
	// and the variant with foaf:Toby_Maguire in the age pattern
	foafToby := rdf.IRI(workload.NSFoaf + "Toby_Maguire")
	for _, d := range res.Disjuncts {
		uses := false
		for _, tp := range d.Query.GP {
			if !tp.S.IsVar() && tp.S.Term() == foafToby && !tp.P.IsVar() && tp.P.Term() == workload.Age {
				uses = true
			}
		}
		if uses && len(d.Query.GP) == len(bq.GP) {
			uq, err := sparql.FromUCQ([]pattern.Query{bq, d.Query}, ns)
			if err == nil {
				t.Notes = append(t.Notes, "rewritten query (the paper's displayed step):", "  "+uq.String())
			}
			break
		}
	}
	if before || !after {
		t.Notes = append(t.Notes, "REPRODUCTION MISMATCH")
	}
	return t, nil
}

// E3ChaseScaling measures Theorem 1 empirically: chase time as the stored
// database doubles, with fixed system and query. Polynomial data complexity
// shows as bounded time ratios under doubling.
func E3ChaseScaling(films []int) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Theorem 1 — chase scaling (PTIME data complexity), film workload",
		Columns: []string{"films", "stored", "inferred", "GMA firings", "equiv copies", "chase time", "x-prev"},
	}
	var prev time.Duration
	for _, n := range films {
		sys := workload.ScaledFilmSystem(workload.FilmConfig{
			Films: n, ActorsPerFilm: 3, SameAsFraction: 0.5, Seed: 7,
		})
		stored := sys.StoredDatabase().Len()
		start := time.Now()
		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		ratio := "-"
		if prev > 0 {
			ratio = fmt.Sprintf("%.2f", float64(dur)/float64(prev))
		}
		prev = dur
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", stored),
			fmt.Sprintf("%d", u.Stats.TriplesAdded),
			fmt.Sprintf("%d", u.Stats.GMAFirings),
			fmt.Sprintf("%d", u.Stats.EquivCopies),
			ms(dur), ratio,
		})
	}
	t.Notes = append(t.Notes,
		"shape check: time ratio under input doubling stays bounded (polynomial), no blow-up",
		"the chase terminates on every instance (Theorem 1)")
	return t, nil
}

// E4Rewriting compares the answering strategies of Proposition 2 as the
// number of equivalence mappings grows: full UCQ rewriting explodes with
// |E| while the combined approach and the (amortised) chase stay flat.
func E4Rewriting(equivCounts []int) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Proposition 2 — FO rewriting vs materialisation vs combined approach",
		Columns: []string{"|E|", "UCQ size", "rewrite", "combined UCQ", "combined",
			"chase", "answers", "agree"},
	}
	for _, k := range equivCounts {
		sys := equivChainSystem(k)
		q := workload.CoreQuery(1) // query the target vocabulary
		full, err := baseline.FullRewrite(sys, q, rewrite.Options{MaxQueries: 2000000})
		if err != nil {
			return nil, err
		}
		comb, err := baseline.Combined(sys, q, rewrite.Options{})
		if err != nil {
			return nil, err
		}
		mat, err := baseline.Materialize(sys, q)
		if err != nil {
			return nil, err
		}
		agree := full.Answers.Equal(mat.Answers) && comb.Answers.Equal(mat.Answers)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", full.Disjuncts), ms(full.Duration),
			fmt.Sprintf("%d", comb.Disjuncts), ms(comb.Duration),
			ms(mat.Duration),
			fmt.Sprintf("%d", mat.Answers.Len()),
			fmt.Sprintf("%v", agree),
		})
		if !agree {
			t.Notes = append(t.Notes, fmt.Sprintf("|E|=%d: STRATEGY DISAGREEMENT", k))
		}
	}
	t.Notes = append(t.Notes,
		"shape check: full-UCQ size grows with |E| (the paper's motivation for better rewriting)",
		"combined UCQ size is independent of |E|; all strategies agree on answers")
	return t, nil
}

// equivChainSystem builds a 2-peer rename system whose entities carry k
// equivalence links — the |E| knob for E4.
func equivChainSystem(k int) *core.System {
	sys := workload.LODSystem(workload.LODConfig{
		Peers: 2, Topology: workload.Chain, FactsPerPeer: 30,
		EntitiesPerPeer: k + 2, EquivFraction: 0, Shape: workload.Rename, Seed: 13,
	})
	for e := 0; e < k; e++ {
		_ = sys.AddEquivalence(workload.LODEntity(0, e), workload.LODEntity(1, e))
	}
	return sys
}

// E5NonFO exhibits Proposition 3: under the transitive-closure mapping, the
// depth-d rewriting answers chains only up to length d+1, while the chase
// is complete for every length — no finite FO rewriting exists.
func E5NonFO(lengths []int) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Proposition 3 — transitive closure is not FO-rewritable",
		Columns: []string{"chain L", "chase answers", "chase ok", "depth", "UCQ size",
			"rewriting finds (n0,A,nL)"},
	}
	A := rdf.IRI("http://e/A")
	sigma := []rewrite.TripleTGD{{
		Body: pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("z")),
			pattern.TP(pattern.V("z"), pattern.C(A), pattern.V("y")),
		},
		Head:  pattern.GraphPattern{pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("y"))},
		Label: "transitive",
	}}
	for _, L := range lengths {
		sys := transitiveChain(L)
		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			return nil, err
		}
		closure := u.CertainAnswers(pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
			pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("y")),
		}))
		wantClosure := L * (L + 1) / 2
		ask := pattern.Query{GP: pattern.GraphPattern{
			pattern.TP(pattern.C(chainNode(0)), pattern.C(A), pattern.C(chainNode(L))),
		}}
		for _, depth := range []int{L / 2, L} {
			if depth < 1 {
				depth = 1
			}
			res, err := rewrite.RewriteTGDs(ask, sigma, rewrite.Options{MaxDepth: depth, MaxQueries: 2000000})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", L),
				fmt.Sprintf("%d/%d", closure.Len(), wantClosure),
				fmt.Sprintf("%v", closure.Len() == wantClosure),
				fmt.Sprintf("%d", depth),
				fmt.Sprintf("%d", res.Size()),
				fmt.Sprintf("%v", res.Ask(sys.StoredDatabase())),
			})
		}
	}
	t.Notes = append(t.Notes,
		"shape check: for every fixed depth there is a chain length the rewriting misses,",
		"while the chase stays complete — matching Proposition 3's impossibility argument")
	return t, nil
}

func chainNode(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://e/n%d", i)) }

func transitiveChain(n int) *core.System {
	sys := core.NewSystem()
	p := sys.AddPeer("p")
	A := rdf.IRI("http://e/A")
	for i := 0; i < n; i++ {
		if err := p.Add(rdf.Triple{S: chainNode(i), P: A, O: chainNode(i + 1)}); err != nil {
			panic(err)
		}
	}
	from := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("z")),
		pattern.TP(pattern.V("z"), pattern.C(A), pattern.V("y")),
	})
	to := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(A), pattern.V("y")),
	})
	if err := sys.AddMapping(core.GraphMappingAssertion{From: from, To: to, SrcPeer: "p", DstPeer: "p", Label: "transitive"}); err != nil {
		panic(err)
	}
	return sys
}

// E6Stickiness verifies every Section 4 classification claim via the
// Definition 4 marking procedure.
func E6Stickiness() (*Table, error) {
	sys := workload.Figure1System()
	eqT := core.EquivalenceTGDs(sys.E[0])
	gmaT := []tgd.TGD{core.MappingTGD(workload.FilmGMA())}

	pathToEdge := []tgd.TGD{{
		Body: []tgd.Atom{
			tgd.TTAtom(tgd.V("x"), tgd.C(rdf.IRI("http://e/A")), tgd.V("z")),
			tgd.TTAtom(tgd.V("z"), tgd.C(rdf.IRI("http://e/B")), tgd.V("y")),
			tgd.RTAtom(tgd.V("x")), tgd.RTAtom(tgd.V("y")),
		},
		Head: []tgd.Atom{tgd.TTAtom(tgd.V("x"), tgd.C(rdf.IRI("http://e/C")), tgd.V("y"))},
	}}
	transitive := []tgd.TGD{{
		Body: []tgd.Atom{
			tgd.TTAtom(tgd.V("x"), tgd.C(rdf.IRI("http://e/A")), tgd.V("z")),
			tgd.TTAtom(tgd.V("z"), tgd.C(rdf.IRI("http://e/A")), tgd.V("y")),
			tgd.RTAtom(tgd.V("x")), tgd.RTAtom(tgd.V("y")),
		},
		Head: []tgd.Atom{tgd.TTAtom(tgd.V("x"), tgd.C(rdf.IRI("http://e/A")), tgd.V("y"))},
	}}
	full := append(append([]tgd.TGD{}, eqT...), append(gmaT, pathToEdge[0], transitive[0])...)

	t := &Table{
		ID:      "E6",
		Title:   "Definition 4 — stickiness test and TGD classification (Section 4 claims)",
		Columns: []string{"TGD set", "linear", "sticky", "sticky-join", "guarded", "weakly-acyclic", "paper says"},
	}
	add := func(name string, sigma []tgd.TGD, paper string) {
		c := tgd.Classify(sigma)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%v", c.Linear), fmt.Sprintf("%v", c.Sticky),
			fmt.Sprintf("%v", c.StickyJoin), fmt.Sprintf("%v", c.Guarded),
			fmt.Sprintf("%v", c.WeaklyAcyclic), paper,
		})
	}
	// the paper drops the rt atoms before analysing rewritability ("we can
	// drop the atoms rt(x), rt(y) in the body"); show both forms
	gmaNoRT := []tgd.TGD{{Body: nil, Head: gmaT[0].Head}}
	for _, a := range gmaT[0].Body {
		if a.Pred == tgd.PredTT {
			gmaNoRT[0].Body = append(gmaNoRT[0].Body, a)
		}
	}
	add("equivalence mappings (6 TGDs)", eqT, "linear+sticky")
	add("Example 2 GMA (with rt atoms)", gmaT, "—")
	add("Example 2 GMA (rt dropped, §4)", gmaNoRT, "linear")
	add("path-to-edge GMA (Sec. 4)", pathToEdge, "not sticky")
	add("transitive GMA (Prop. 3)", transitive, "not sticky/linear")
	add("full Figure-1 encoding", full, "incomparable to known classes")

	ok := tgd.IsSticky(eqT) && tgd.IsLinear(eqT) &&
		tgd.IsLinear(gmaNoRT) &&
		!tgd.IsSticky(pathToEdge) &&
		!tgd.IsSticky(transitive) && !tgd.IsLinear(transitive)
	t.Notes = append(t.Notes, fmt.Sprintf("all Section 4 classification claims verified: %v", ok))
	if !ok {
		t.Notes = append(t.Notes, "REPRODUCTION MISMATCH")
	}
	return t, nil
}

// E7Federation measures the Section 5 prototype: federated query answering
// over the simulated network across peer counts and topologies. The fed
// options set the probe batch size, per-peer in-flight window and fault
// tolerance; cmd/rpsbench exposes them as -fed-batch, -fed-retries and
// -fed-hedge for this table and A4.
func E7Federation(peerCounts []int, topologies []workload.Topology, fed federation.Options) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Section 5 prototype — federated query processing over simnet",
		Columns: []string{"peers", "topology", "disjuncts", "remote calls", "batched", "cache hits",
			"rows shipped", "bytes", "in-flight max", "answers", "time"},
	}
	for _, k := range peerCounts {
		for _, top := range topologies {
			sys := workload.LODSystem(workload.LODConfig{
				Peers: k, Topology: top, FactsPerPeer: 10, EntitiesPerPeer: 8,
				EquivFraction: 0, Shape: workload.Rename, Seed: 21, EdgeProb: 2.0 / float64(k),
			})
			net := simnet.New()
			reg := peer.NewRegistry()
			peer.Deploy(sys, net, reg)
			net.Register("mediator", nil)
			eng := federation.New(sys, reg, peer.NewClient(net, "mediator"), fed)
			q := workload.CoreQuery(k - 1)
			start := time.Now()
			answers, metrics, err := eng.Answer(q)
			if err != nil {
				return nil, err
			}
			dur := time.Since(start)
			st := net.Stats()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", k), top.String(),
				fmt.Sprintf("%d", metrics.Disjuncts),
				fmt.Sprintf("%d", metrics.RemoteCalls),
				fmt.Sprintf("%d", metrics.Batches),
				fmt.Sprintf("%d", metrics.CacheHits),
				fmt.Sprintf("%d", metrics.RowsFetched),
				fmt.Sprintf("%d", st.BytesSent+st.BytesRecv),
				fmt.Sprintf("%d", metrics.InFlightMax),
				fmt.Sprintf("%d", answers.Len()),
				ms(dur),
			})
		}
	}
	t.Notes = append(t.Notes,
		"shape check: remote calls grow with the mapping diameter (chain) and stay flat for star;",
		"cycles terminate — the scenario the paper says existing rewriters cannot handle")
	return t, nil
}

// E8Baselines quantifies the related-work gap: completeness of each
// answering strategy as the mapping hop distance grows.
func E8Baselines(hops []int) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Related-work gap — completeness vs mapping hop distance",
		Columns: []string{"hops", "certain answers", "no-integration", "two-tier [18-20]",
			"RPS rewrite", "RPS chase"},
	}
	for _, h := range hops {
		sys := workload.HopSystem(h, 6, 3)
		q := workload.CoreQuery(h)
		ref, err := baseline.Materialize(sys, q)
		if err != nil {
			return nil, err
		}
		none := baseline.NoIntegration(sys, q)
		two := baseline.TwoTier(sys, q)
		full, err := baseline.FullRewrite(sys, q, rewrite.Options{})
		if err != nil {
			return nil, err
		}
		pct := func(r baseline.Report) string {
			return fmt.Sprintf("%.0f%%", 100*r.Completeness(ref.Answers))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%d", ref.Answers.Len()),
			pct(none), pct(two), pct(full), "100%",
		})
	}
	t.Notes = append(t.Notes,
		"shape check: two-tier completeness collapses beyond one hop; the RPS strategies stay at 100%",
		"— the gap the paper's introduction motivates")
	return t, nil
}
