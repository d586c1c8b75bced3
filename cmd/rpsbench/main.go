// Command rpsbench regenerates every experiment table of the reproduction
// (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the recorded
// results):
//
//	rpsbench             # run everything at the default sizes
//	rpsbench -e e1,e5    # selected experiments
//	rpsbench -quick      # smaller sizes for a fast smoke run
//	rpsbench -json out.json   # machine-readable results + contention benches
//
// With -json, the selected experiment tables are additionally written as a
// JSON document together with a fixed suite of store microbenchmarks
// (ns/op, allocs/op — including the snapshot-read-under-writes contention
// probes), the closed-loop load/cache/durability harnesses, and the
// federation fault-tolerance benchmark (mediator qps and p99 at 0/10/30%
// unhealthy peers, hedging off and on, over 3-replica sets), so the
// performance trajectory of the repository is recorded as an artifact
// (CI uploads BENCH_PR9.json from the bench-smoke job).
//
// Experiments: e1 (Listing 1), e2 (Listing 2), e3 (Theorem 1 chase
// scaling), e4 (Proposition 2 rewriting strategies), e5 (Proposition 3
// non-FO-rewritability), e6 (Definition 4 classification), e7 (Section 5
// federation), e8 (related-work baseline gap), e9 (future work: Datalog
// rewriting), e10 (future work: mapping discovery); ablations a1 (equivalence
// strategy), a2 (chase scheduling), a3 (join ordering), a4 (federated join
// strategy), a5 (incremental maintenance vs re-chase).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func main() {
	var (
		which       = flag.String("e", "all", "comma-separated experiment ids (e1..e8, a1..a4) or 'all'")
		quick       = flag.Bool("quick", false, "use smaller problem sizes")
		shards      = flag.Int("shards", 0, "graph store shard count (0 = one per CPU)")
		fedParallel = flag.Bool("fed-parallel", true, "evaluate federated UCQ disjuncts in parallel (E7)")
		fedBatch    = flag.Int("fed-batch", 0, "probe batch size for the federated mediator: bindings one probe query ships (0 = library default)")
		fedAdaptive = flag.Bool("fed-adaptive", false, "size probe batches adaptively from per-peer RTT EWMAs (-fed-batch is the cap)")
		fedRetries  = flag.Int("fed-retries", 3, "max attempts per federated sub-query in E7/a4 (1 = no retries)")
		fedHedge    = flag.Bool("fed-hedge", false, "hedge slow federated sub-queries against replicas in E7/a4")
		jsonPath    = flag.String("json", "", "also write machine-readable results (tables + store microbenchmarks) to this file")
		rcache      = flag.Bool("result-cache", false, "run the experiments with the answer cache installed (the -json cache sweep measures on/off either way)")
		rcacheMB    = flag.Int("result-cache-mb", 64, "answer cache byte budget in MiB")
	)
	flag.Parse()
	rdf.SetDefaultShardCount(*shards)
	fed := federation.Options{
		Serial:    !*fedParallel,
		BatchSize: *fedBatch,
		Adaptive:  *fedAdaptive,
		Retry:     federation.RetryPolicy{MaxAttempts: *fedRetries},
		Hedge:     *fedHedge,
	}
	if *rcache {
		qc := qcache.New(int64(*rcacheMB) << 20)
		plan.SetAnswerCache(qc.Layer("plan"))
		plan.SetNegativeAskCache(qcache.NewNegCache(4096))
		sparql.SetAnswerCache(qc.Layer("sparql"))
		fed.AnswerCache = qc
	}
	if err := run(os.Stdout, *which, *quick, fed, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "rpsbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, which string, quick bool, fed federation.Options, jsonPath string) error {
	selected := map[string]bool{}
	if which == "all" {
		for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "a1", "a2", "a3", "a4", "a5"} {
			selected[id] = true
		}
	} else {
		for _, id := range strings.Split(which, ",") {
			selected[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}

	sizes := struct {
		films      []int
		equivs     []int
		chains     []int
		datalogL   []int
		noise      []float64
		peers      []int
		hops       []int
		ablFilms   []int
		joinOrder  []int
		fedBulk    []int
		topologies []workload.Topology
	}{
		films:      []int{25, 50, 100, 200, 400},
		equivs:     []int{0, 4, 8, 12, 16},
		chains:     []int{2, 4, 6, 8},
		datalogL:   []int{8, 32, 128},
		noise:      []float64{0, 0.2, 0.4, 0.6},
		peers:      []int{2, 4, 8, 16},
		hops:       []int{1, 2, 3, 4, 6},
		ablFilms:   []int{10, 20, 40},
		joinOrder:  []int{10000, 50000},
		fedBulk:    []int{1000, 5000},
		topologies: []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.Random},
	}
	if quick {
		sizes.films = []int{10, 20, 40}
		sizes.equivs = []int{0, 2, 4}
		sizes.chains = []int{2, 4}
		sizes.datalogL = []int{8, 32}
		sizes.noise = []float64{0, 0.4}
		sizes.peers = []int{2, 4}
		sizes.hops = []int{1, 2, 3}
		sizes.ablFilms = []int{5, 10}
		sizes.joinOrder = []int{5000}
		sizes.fedBulk = []int{500}
		sizes.topologies = []workload.Topology{workload.Chain, workload.Star}
	}

	type experiment struct {
		id  string
		run func() (*experiments.Table, error)
	}
	all := []experiment{
		{"e1", experiments.E1Listing1},
		{"e2", experiments.E2Listing2},
		{"e3", func() (*experiments.Table, error) { return experiments.E3ChaseScaling(sizes.films) }},
		{"e4", func() (*experiments.Table, error) { return experiments.E4Rewriting(sizes.equivs) }},
		{"e5", func() (*experiments.Table, error) { return experiments.E5NonFO(sizes.chains) }},
		{"e6", experiments.E6Stickiness},
		{"e7", func() (*experiments.Table, error) {
			return experiments.E7Federation(sizes.peers, sizes.topologies, fed)
		}},
		{"e8", func() (*experiments.Table, error) { return experiments.E8Baselines(sizes.hops) }},
		{"e9", func() (*experiments.Table, error) { return experiments.E9Datalog(sizes.datalogL) }},
		{"e10", func() (*experiments.Table, error) { return experiments.E10Discovery(sizes.noise) }},
		{"a1", func() (*experiments.Table, error) { return experiments.AblationEquiv(sizes.ablFilms) }},
		{"a2", func() (*experiments.Table, error) { return experiments.AblationChaseScheduling(sizes.ablFilms) }},
		{"a3", func() (*experiments.Table, error) { return experiments.AblationJoinOrder(sizes.joinOrder) }},
		{"a4", func() (*experiments.Table, error) { return experiments.AblationFederationJoin(sizes.fedBulk) }},
		{"a5", func() (*experiments.Table, error) { return experiments.AblationIncremental(sizes.films) }},
	}

	ran := 0
	var tables []*experiments.Table
	for _, e := range all {
		if !selected[e.id] {
			continue
		}
		tab, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(w, tab.Format())
		tables = append(tables, tab)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", which)
	}
	if jsonPath != "" {
		if err := writeJSONReport(jsonPath, quick, tables); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return nil
}
