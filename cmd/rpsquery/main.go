// Command rpsquery answers SPARQL queries against an RDF Peer System stored
// on disk (see internal/mapfile for the format), using any of the
// implemented strategies:
//
//	rpsquery -system testdata/system.rps -query 'SELECT ?x WHERE { ... }'
//	rpsquery -system system.rps -queryfile q.rq -mode rewrite -stats
//	rpsquery -system system.rps -queryfile q.rq -mode rewrite -explain
//
// Modes: chase (materialise the universal solution, always complete),
// rewrite (full UCQ rewriting evaluated over the stored data), combined
// (canonicalised equivalences + GMA rewriting), direct (no integration),
// federation (deploy the system's peers on an in-process simulated network
// and answer through the Section 5 mediator — parallel UCQ disjuncts, each
// evaluated along its join graph, a join step shipping bindings as batched
// VALUES probes while they fit in one probe wave and fetching the pattern's
// extension otherwise; tune with -fed-batch). Federation
// mode is fault-tolerant: -fed-retries bounds the
// attempts per sub-query, -fed-replicas deploys each peer as a replica set
// (failover targets), -fed-hedge races slow sub-queries against a replica,
// and -fed-partial degrades to the partial certain-answer subset (reported
// as "-- partial: …" lines) when a source stays down after retries.
//
// With -explain the query is not answered; instead the streaming execution
// plan (internal/plan) of each conjunctive body the strategy would run is
// printed — for rewrite/combined, one plan per UCQ disjunct; for
// federation, the federated plan under the parallel Union: per disjunct,
// RemoteScan leaves in join-graph order (source fan-out, in-flight window)
// folded by RemoteJoin steps that carry the bind-or-fetch rule (bind<=N
// batch=B).
//
// With -analyze the query IS answered, and the plan is printed with
// per-operator execution statistics — actual rows, Next calls, inclusive
// wall time, hash-join build sizes, and for a federated join step the
// branch it took (strategy=bind|extension) — plus the answer cardinality. A
// -query-timeout bounds the execution: plan iterators poll the deadline and
// stop producing tuples when it passes (the partial tree is still printed).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/mapfile"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
	"repro/internal/sparql"
)

func main() {
	var (
		systemPath = flag.String("system", "", "path to the system.rps file (required)")
		queryText  = flag.String("query", "", "SPARQL query text")
		queryFile  = flag.String("queryfile", "", "file containing the SPARQL query")
		mode       = flag.String("mode", "chase", "answering strategy: chase | rewrite | combined | direct | federation")
		stats      = flag.Bool("stats", false, "print strategy statistics")
		noRedund   = flag.Bool("no-redundancy", false, "collapse sameAs-equivalent answers (chase mode)")
		maxDepth   = flag.Int("max-depth", 0, "bound rewriting depth (0 = library default)")
		explain    = flag.Bool("explain", false, "print the execution plan(s) instead of answering")
		analyze    = flag.Bool("analyze", false, "execute the query and print the plan with per-operator statistics (EXPLAIN ANALYZE)")
		timeout    = flag.Duration("query-timeout", 0, "bound query execution; expired queries stop producing tuples (0 = none)")
		shards     = flag.Int("shards", 0, "graph store shard count (0 = one per CPU)")
		fedBatch   = flag.Int("fed-batch", 0, "probe batch size: bindings one probe query ships (0 = library default; federation mode)")
		fedRetries = flag.Int("fed-retries", 3, "max attempts per federated sub-query (transient failures retry with exponential backoff; 1 = no retries)")
		fedHedge   = flag.Bool("fed-hedge", false, "hedge slow federated sub-queries against a replica endpoint (federation mode)")
		fedPartial = flag.Bool("fed-partial", false, "degrade gracefully: skip sources unreachable after retries and answer the partial subset, reporting the skipped sources (federation mode)")
		fedReplica = flag.Int("fed-replicas", 1, "replica endpoints per peer on the simulated network (federation mode)")
		rcache     = flag.Bool("result-cache", false, "cache query answers keyed on (query, store epoch vector) with singleflight collapsing")
		rcacheMB   = flag.Int("result-cache-mb", 64, "answer cache byte budget in MiB")
	)
	flag.Parse()
	rdf.SetDefaultShardCount(*shards)
	fed := federation.Options{
		BatchSize: *fedBatch,
		Retry:     federation.RetryPolicy{MaxAttempts: *fedRetries},
		Hedge:     *fedHedge,
		Partial:   *fedPartial,
	}
	fedReplicas = *fedReplica
	if *rcache {
		qc := qcache.New(int64(*rcacheMB) << 20)
		plan.SetAnswerCache(qc.Layer("plan"))
		plan.SetNegativeAskCache(qcache.NewNegCache(4096))
		sparql.SetAnswerCache(qc.Layer("sparql"))
		fed.AnswerCache = qc
	}
	fed.Rewrite.MaxDepth = *maxDepth
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *analyze {
		if err := runAnalyze(ctx, os.Stdout, *systemPath, *queryText, *queryFile, *mode, *maxDepth, fed); err != nil {
			fmt.Fprintln(os.Stderr, "rpsquery:", err)
			os.Exit(1)
		}
		return
	}
	if *explain {
		if *stats || *noRedund {
			fmt.Fprintln(os.Stderr, "rpsquery: -stats and -no-redundancy are ignored with -explain")
		}
		if err := runExplain(os.Stdout, *systemPath, *queryText, *queryFile, *mode, *maxDepth, fed); err != nil {
			fmt.Fprintln(os.Stderr, "rpsquery:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *systemPath, *queryText, *queryFile, *mode, *stats, *noRedund, *maxDepth, fed); err != nil {
		fmt.Fprintln(os.Stderr, "rpsquery:", err)
		os.Exit(1)
	}
}

// loadQuery loads the system file and parses the query into the
// conjunctive fragment; shared by run and runExplain.
func loadQuery(systemPath, queryText, queryFile string) (*core.System, *rdf.Namespaces, pattern.Query, error) {
	if systemPath == "" {
		return nil, nil, pattern.Query{}, fmt.Errorf("-system is required")
	}
	if queryFile != "" {
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return nil, nil, pattern.Query{}, err
		}
		queryText = string(data)
	}
	if queryText == "" {
		return nil, nil, pattern.Query{}, fmt.Errorf("one of -query or -queryfile is required")
	}
	sys, ns, err := mapfile.Load(systemPath)
	if err != nil {
		return nil, nil, pattern.Query{}, err
	}
	sq, err := sparql.Parse(queryText, ns)
	if err != nil {
		return nil, nil, pattern.Query{}, err
	}
	q, err := sq.ToPatternQuery()
	if err != nil {
		return nil, nil, pattern.Query{}, fmt.Errorf("the query must be in the conjunctive fragment: %w", err)
	}
	return sys, ns, q, nil
}

func run(w io.Writer, systemPath, queryText, queryFile, mode string, stats, noRedund bool, maxDepth int, fed federation.Options) error {
	sys, ns, q, err := loadQuery(systemPath, queryText, queryFile)
	if err != nil {
		return err
	}

	start := time.Now()
	var answers *pattern.TupleSet
	var extra string
	switch mode {
	case "chase":
		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			return err
		}
		if noRedund {
			answers = pattern.NewTupleSet()
			for _, t := range u.CertainAnswersNoRedundancy(q) {
				answers.Add(t)
			}
		} else {
			answers = u.CertainAnswers(q)
		}
		extra = fmt.Sprintf("universal solution: %d triples (%d inferred, %d labelled nulls) in %d rounds",
			u.Graph.Len(), u.Stats.TriplesAdded, u.Stats.FreshBlanks, u.Stats.Rounds)
	case "rewrite":
		rep, err := baseline.FullRewrite(sys, q, rewrite.Options{MaxDepth: maxDepth})
		if err != nil {
			return err
		}
		answers = rep.Answers
		extra = fmt.Sprintf("UCQ: %d disjuncts, truncated=%v", rep.Disjuncts, rep.Truncated)
		if rep.Truncated {
			extra += " (answers may be incomplete; raise -max-depth)"
		}
	case "combined":
		rep, err := baseline.Combined(sys, q, rewrite.Options{MaxDepth: maxDepth})
		if err != nil {
			return err
		}
		answers = rep.Answers
		extra = fmt.Sprintf("GMA-only UCQ: %d disjuncts, truncated=%v", rep.Disjuncts, rep.Truncated)
	case "direct":
		rep := baseline.NoIntegration(sys, q)
		answers = rep.Answers
		extra = "no integration: mappings ignored"
	case "federation":
		eng, _ := deployFederation(sys, fed)
		var fm *federation.Metrics
		answers, fm, err = eng.Answer(q)
		if err != nil {
			return err
		}
		extra = fmt.Sprintf("federated UCQ: %d disjuncts, %d remote calls (%d batched), %d rows shipped, %d bind / %d extension join steps, %d sources, %d cache hits, peak %d in flight",
			fm.Disjuncts, fm.RemoteCalls, fm.Batches, fm.RowsFetched, fm.BindSteps, fm.ExtensionSteps, fm.SourcesContacted, fm.CacheHits, fm.InFlightMax)
		if fm.RewriteTruncated {
			extra += " (rewriting truncated; answers may be incomplete)"
		}
		for _, line := range fm.PartialSummary() {
			extra += "\n" + line
		}
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	dur := time.Since(start)

	for _, t := range answers.Sorted() {
		for i, x := range t {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, ns.ShortenTerm(x))
		}
		fmt.Fprintln(w)
	}
	if stats {
		st := sys.Stats()
		fmt.Fprintf(os.Stderr, "system: %d peers, %d stored triples, %d GMAs, %d equivalences\n",
			st.Peers, st.Triples, st.GMappings, st.Equivalences)
		fmt.Fprintf(os.Stderr, "%s\n", extra)
		fmt.Fprintf(os.Stderr, "answers: %d in %v\n", answers.Len(), dur)
	}
	return nil
}

// explainDisjunctCap bounds how many UCQ disjunct plans -explain prints.
const explainDisjunctCap = 16

// runExplain prints the execution plans the chosen strategy would run,
// without answering the query.
func runExplain(w io.Writer, systemPath, queryText, queryFile, mode string, maxDepth int, fed federation.Options) error {
	sys, _, q, err := loadQuery(systemPath, queryText, queryFile)
	if err != nil {
		return err
	}
	explainUCQ := func(db *rdf.Graph, qs []pattern.Query) {
		n := len(qs)
		if n > explainDisjunctCap {
			n = explainDisjunctCap
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "-- disjunct %d/%d: %s\n", i+1, len(qs), qs[i])
			fmt.Fprint(w, plan.ExplainQuery(db, qs[i]))
		}
		if len(qs) > n {
			fmt.Fprintf(w, "-- … %d more disjuncts elided\n", len(qs)-n)
		}
	}
	switch mode {
	case "chase":
		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- over the universal solution (%d triples):\n", u.Graph.Len())
		fmt.Fprint(w, plan.ExplainQuery(u.Graph, q))
	case "rewrite":
		res, err := rewrite.Rewrite(q, sys, rewrite.Options{MaxDepth: maxDepth})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- UCQ of %d disjuncts over the stored database, evaluated as a parallel union:\n", res.Size())
		explainUCQ(sys.StoredDatabase(), res.UCQ())
	case "combined":
		comb := rewrite.NewCombined(sys)
		res, err := comb.Rewrite(q, rewrite.Options{MaxDepth: maxDepth})
		if err != nil {
			return err
		}
		db := comb.CanonicalDatabase()
		fmt.Fprintf(w, "-- GMA-only UCQ of %d disjuncts over the canonical database, evaluated as a parallel union:\n", res.Size())
		explainUCQ(db, res.UCQ())
	case "direct":
		fmt.Fprintln(w, "-- over the stored database (mappings ignored):")
		fmt.Fprint(w, plan.ExplainQuery(sys.StoredDatabase(), q))
	case "federation":
		eng, _ := deployFederation(sys, fed)
		s, err := eng.Explain(q)
		if err != nil {
			return err
		}
		fmt.Fprint(w, s)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}

// runAnalyze executes the query under the chosen strategy with every plan
// operator instrumented, and prints the annotated tree plus the answer
// cardinality (EXPLAIN ANALYZE). The root operator of each printed tree is
// the certain-answer δ·π, so its "actual rows" equals the answer count.
func runAnalyze(ctx context.Context, w io.Writer, systemPath, queryText, queryFile, mode string, maxDepth int, fed federation.Options) error {
	sys, _, q, err := loadQuery(systemPath, queryText, queryFile)
	if err != nil {
		return err
	}
	finish := func(s string, rows int, err error) error {
		fmt.Fprint(w, s)
		fmt.Fprintf(w, "-- answers: %d\n", rows)
		return err
	}
	switch mode {
	case "chase":
		u, err := chase.Run(sys, chase.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- over the universal solution (%d triples):\n", u.Graph.Len())
		return finish(plan.ExplainAnalyzeQuery(ctx, u.Graph, q))
	case "rewrite":
		res, err := rewrite.Rewrite(q, sys, rewrite.Options{MaxDepth: maxDepth})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- UCQ of %d disjuncts over the stored database, evaluated as a parallel union:\n", res.Size())
		src := rdf.Freeze(sys.StoredDatabase())
		s, rows, err := plan.ExplainAnalyzeNode(ctx, src, res.UCQPlan(src))
		return finish(truncateUnionBranches(s, explainDisjunctCap), rows, err)
	case "combined":
		comb := rewrite.NewCombined(sys)
		res, err := comb.Rewrite(q, rewrite.Options{MaxDepth: maxDepth})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- GMA-only UCQ of %d disjuncts over the canonical database, evaluated as a parallel union:\n", res.Size())
		src := rdf.Freeze(comb.CanonicalDatabase())
		root := plan.Instrument(res.UCQPlan(src))
		canonical := plan.Drain(root.Open(ctx, src))
		// the plan yields canonical answers; the combined approach's last
		// step expands each across its sameAs equivalence class
		answers := pattern.NewTupleSet()
		for _, mu := range canonical {
			t := make(pattern.Tuple, len(q.Free))
			for i, f := range q.Free {
				t[i] = mu[f]
			}
			comb.ExpandInto(t, answers)
		}
		fmt.Fprint(w, truncateUnionBranches(plan.Format(root), explainDisjunctCap))
		fmt.Fprintf(w, "-- %d canonical rows expanded across equivalence classes\n", len(canonical))
		fmt.Fprintf(w, "-- answers: %d\n", answers.Len())
		return ctx.Err()
	case "direct":
		fmt.Fprintln(w, "-- over the stored database (mappings ignored):")
		return finish(plan.ExplainAnalyzeQuery(ctx, sys.StoredDatabase(), q))
	case "federation":
		eng, _ := deployFederation(sys, fed)
		p, err := eng.Plan(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- federated UCQ of %d disjuncts\n", p.Rewriting.Size())
		root := plan.Instrument(p.Root)
		rows := len(plan.Drain(root.Open(ctx, nil)))
		fmt.Fprint(w, truncateUnionBranches(plan.Format(root), explainDisjunctCap))
		if err := p.Err(); err != nil {
			return err
		}
		fm := p.Metrics()
		fmt.Fprintf(w, "-- shipped: %d rows in %d remote calls, %d bind / %d extension join steps\n",
			fm.RowsFetched, fm.RemoteCalls, fm.BindSteps, fm.ExtensionSteps)
		// under Options.Partial, sources skipped after exhausted retries
		// annotate the analyzed plan with their completeness report
		for _, line := range fm.PartialSummary() {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "-- answers: %d\n", rows)
		return ctx.Err()
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

// truncateUnionBranches elides the rendered federated plan after maxBranch
// direct children of the top-level Union (every disjunct executed either
// way; only the printout is capped, as with -explain).
func truncateUnionBranches(s string, maxBranch int) string {
	lines := strings.Split(s, "\n")
	branches, total := 0, 0
	cut := len(lines)
	for i, line := range lines {
		if strings.HasPrefix(line, "    ") && len(line) > 4 && line[4] != ' ' {
			total++
			if total == maxBranch+1 && cut == len(lines) {
				cut = i
			}
		}
	}
	if cut == len(lines) {
		return s
	}
	branches = total - maxBranch
	return strings.Join(lines[:cut], "\n") +
		fmt.Sprintf("\n    … %d more branches elided …\n", branches)
}

// fedReplicas is the -fed-replicas setting: how many endpoints serve each
// peer on the simulated network (1 = just the primary).
var fedReplicas = 1

// deployFederation serves the system's peers on an in-process simulated
// network and returns the mediator over them — the Section 5 architecture
// in one process, like rpsd's /federated endpoint but without HTTP. With
// -fed-replicas > 1 every peer is deployed as a replica set, so the
// mediator's failover and hedging paths have alternates to route to.
func deployFederation(sys *core.System, fed federation.Options) (*federation.Engine, *simnet.Network) {
	net := simnet.New()
	reg := peer.NewRegistry()
	peer.DeployReplicated(sys, net, reg, fedReplicas)
	net.Register("mediator", nil)
	return federation.New(sys, reg, peer.NewClient(net, "mediator"), fed), net
}
