package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/mapfile"
	"repro/internal/rdf"
	"repro/internal/workload"
)

func figure1OnDisk(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path, err := mapfile.Save(workload.Figure1System(), workload.FilmNamespaces(), dir)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

const example1SPARQL = `
PREFIX DB1: <http://db1.example.org/>
PREFIX ex: <http://example.org/>
SELECT ?x ?y WHERE { DB1:Spiderman ex:starring ?z . ?z ex:artist ?x . ?x ex:age ?y }`

func TestModesProduceListing1(t *testing.T) {
	path := figure1OnDisk(t)
	for _, mode := range []string{"chase", "rewrite", "combined", "federation"} {
		t.Run(mode, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, path, example1SPARQL, "", mode, true, false, 0, federation.Options{}); err != nil {
				t.Fatal(err)
			}
			lines := strings.Count(strings.TrimSpace(out.String()), "\n") + 1
			if lines != 6 {
				t.Errorf("mode %s: %d rows, want 6:\n%s", mode, lines, out.String())
			}
		})
	}
	// direct mode: empty (Example 1)
	var out bytes.Buffer
	if err := run(&out, path, example1SPARQL, "", "direct", false, false, 0, federation.Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "" {
		t.Errorf("direct mode should be empty, got %q", out.String())
	}
}

func TestNoRedundancy(t *testing.T) {
	path := figure1OnDisk(t)
	var out bytes.Buffer
	if err := run(&out, path, example1SPARQL, "", "chase", false, true, 0, federation.Options{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(out.String()), "\n") + 1
	if lines != 3 {
		t.Errorf("no-redundancy rows = %d, want 3:\n%s", lines, out.String())
	}
}

func TestExplain(t *testing.T) {
	path := figure1OnDisk(t)
	for _, mode := range []string{"chase", "rewrite", "combined", "direct"} {
		t.Run(mode, func(t *testing.T) {
			var out bytes.Buffer
			if err := runExplain(&out, path, example1SPARQL, "", mode, 0, federation.Options{}); err != nil {
				t.Fatal(err)
			}
			s := out.String()
			if !strings.Contains(s, "IndexScan") {
				t.Errorf("mode %s: no IndexScan in plan:\n%s", mode, s)
			}
			if !strings.Contains(s, "Project[?x ?y]") {
				t.Errorf("mode %s: missing projection:\n%s", mode, s)
			}
			if mode == "rewrite" && !strings.Contains(s, "parallel union") {
				t.Errorf("rewrite explain should mention the parallel union:\n%s", s)
			}
		})
	}
	var out bytes.Buffer
	if err := runExplain(&out, path, example1SPARQL, "", "warp", 0, federation.Options{}); err == nil {
		t.Error("unknown mode accepted by -explain")
	}
}

// -explain in federation mode prints the federated plan: RemoteScan leaves
// in join order with routing parameters and each step's bind-or-fetch rule
// under the parallel Union.
func TestExplainFederation(t *testing.T) {
	path := figure1OnDisk(t)
	var out bytes.Buffer
	fed := federation.Options{BatchSize: 8}
	if err := runExplain(&out, path, example1SPARQL, "", "federation", 0, fed); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"federated UCQ", "parallel mediator", "Union[parallel", "RemoteJoin[on ", "RemoteScan[", "bind<=32 batch=8", "window="} {
		if !strings.Contains(s, want) {
			t.Errorf("federated explain missing %q:\n%s", want, s)
		}
	}
}

// A 3-hop path written out of path order, over a two-peer chain whose
// rename mapping multiplies it into several disjuncts: -explain prints each
// disjunct's leaves in join-graph order with the step's rule, and -analyze
// adds the branch each step took and ships exactly what Answer ships.
func TestFederationFollowsJoinGraph(t *testing.T) {
	sys := workload.LODSystem(workload.LODConfig{
		Peers: 2, Topology: workload.Chain, Shape: workload.Rename,
		FactsPerPeer: 60, EntitiesPerPeer: 20, Seed: 1,
	})
	path, err := mapfile.Save(sys, rdf.NewNamespaces(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	start, core1 := workload.LODEntity(0, 3), workload.LODPredicate(1, "core")
	shuffled := fmt.Sprintf("SELECT ?x2 ?x3 WHERE { ?x2 %[2]s ?x3 . %[1]s %[2]s ?x1 . ?x1 %[2]s ?x2 }", start, core1)
	var out bytes.Buffer
	if err := runExplain(&out, path, shuffled, "", "federation", 0, federation.Options{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	at := 0
	for _, want := range []string{
		"RemoteJoin[on x2]",
		"RemoteJoin[on x1]",
		fmt.Sprintf("RemoteScan[%s %s ?x1] sources=0 window=4\n", start, core1), // no peer holds both IRIs
		fmt.Sprintf("RemoteScan[?x1 %s ?x2] sources=1 bind<=64 batch=16 window=4\n", core1),
		fmt.Sprintf("RemoteScan[?x2 %s ?x3] sources=1 bind<=64 batch=16 window=4\n", core1),
	} {
		i := strings.Index(s[at:], want)
		if i < 0 {
			t.Fatalf("explain: %q missing or out of join-graph order:\n%s", want, s)
		}
		at += i + len(want)
	}

	_, _, q, err := loadQuery(path, shuffled, "")
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := deployFederation(sys, federation.Options{})
	answers, m, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if answers.Len() == 0 || m.BindSteps == 0 {
		t.Fatalf("%d answers, %d bind steps: the path proves nothing", answers.Len(), m.BindSteps)
	}
	out.Reset()
	if err := runAnalyze(context.Background(), &out, path, shuffled, "", "federation", 0, federation.Options{}); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	for _, want := range []string{
		// (remote calls may differ: a single-pattern disjunct of the plan
		// opens its own stream where Answer shares the per-query cache)
		fmt.Sprintf("-- shipped: %d rows in ", m.RowsFetched),
		fmt.Sprintf(" remote calls, %d bind / %d extension join steps\n", m.BindSteps, m.ExtensionSteps),
		"strategy=bind (actual rows=",
		fmt.Sprintf("-- answers: %d\n", answers.Len()),
	} {
		if !strings.Contains(s, want) {
			t.Errorf("analyze output missing %q:\n%s", want, s)
		}
	}
}

func TestQueryFile(t *testing.T) {
	path := figure1OnDisk(t)
	qf := filepath.Join(t.TempDir(), "q.rq")
	if err := os.WriteFile(qf, []byte(example1SPARQL), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, path, "", qf, "chase", false, false, 0, federation.Options{}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("no output from query file")
	}
}

func TestErrors(t *testing.T) {
	path := figure1OnDisk(t)
	var out bytes.Buffer
	if err := run(&out, "", example1SPARQL, "", "chase", false, false, 0, federation.Options{}); err == nil {
		t.Error("missing system accepted")
	}
	if err := run(&out, path, "", "", "chase", false, false, 0, federation.Options{}); err == nil {
		t.Error("missing query accepted")
	}
	if err := run(&out, path, example1SPARQL, "", "warp", false, false, 0, federation.Options{}); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(&out, path, "NOT SPARQL", "", "chase", false, false, 0, federation.Options{}); err == nil {
		t.Error("bad query accepted")
	}
	if err := run(&out, path, "SELECT ?x WHERE { { ?x ?p ?o } UNION { ?o ?p ?x } }", "", "chase", false, false, 0, federation.Options{}); err == nil {
		t.Error("non-conjunctive query accepted")
	}
	if err := run(&out, "/nonexistent/system.rps", example1SPARQL, "", "chase", false, false, 0, federation.Options{}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestAnalyzeModes runs EXPLAIN ANALYZE over the Figure 1 system for every
// mode and checks the reported answer counts against the known Listing 1
// cardinality (6 rows). Timings vary run to run, so the golden assertions
// pin structure and counts, not durations.
func TestAnalyzeModes(t *testing.T) {
	path := figure1OnDisk(t)
	// every mode answers Listing 1's 6 rows; the root operator reports the
	// plan's own output — 6, except combined, whose plan yields 3 canonical
	// rows that the sameAs expansion afterwards grows to 6
	rootRows := map[string]int{"chase": 6, "rewrite": 6, "combined": 3, "federation": 6}
	for mode, rows := range rootRows {
		t.Run(mode, func(t *testing.T) {
			var out bytes.Buffer
			err := runAnalyze(context.Background(), &out, path, example1SPARQL, "", mode, 0, federation.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := out.String()
			if !strings.Contains(s, "-- answers: 6") {
				t.Errorf("mode %s: missing '-- answers: 6':\n%s", mode, s)
			}
			re := regexp.MustCompile(fmt.Sprintf(`\(actual rows=%d nexts=\d+ time=[^)]+\)`, rows))
			if !re.MatchString(s) {
				t.Errorf("mode %s: no operator reports the %d-row cardinality:\n%s", mode, rows, s)
			}
		})
	}

	// federation mode caps the rendered union at explainDisjunctCap branches
	var out bytes.Buffer
	if err := runAnalyze(context.Background(), &out, path, example1SPARQL, "", "federation", 0, federation.Options{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "more branches elided") {
		t.Errorf("federation analyze did not elide excess branches:\n%s", s)
	}
	if n := strings.Count(s, "\n"); n > 400 {
		t.Errorf("federation analyze output too long: %d lines", n)
	}
}

func TestTruncateUnionBranches(t *testing.T) {
	in := "Distinct\n  Union[parallel branches=4]\n" +
		"    A\n      a-child\n    B\n    C\n    D\n  tail"
	got := truncateUnionBranches(in, 2)
	if strings.Contains(got, "    C\n") || strings.Contains(got, "    D\n") {
		t.Errorf("branches beyond the cap survived:\n%s", got)
	}
	if !strings.Contains(got, "a-child") {
		t.Errorf("kept branch lost its subtree:\n%s", got)
	}
	if !strings.Contains(got, "2 more branches elided") {
		t.Errorf("missing elision marker:\n%s", got)
	}
	// below the cap: untouched
	if out := truncateUnionBranches(in, 10); out != in {
		t.Errorf("truncation changed output below the cap:\n%s", out)
	}
}
