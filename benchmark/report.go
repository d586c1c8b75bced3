package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the old
// median by which an end-to-end metric may get worse before -compare calls
// it a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	bound  float64
}

// endToEndMetrics is what a user of the system sees. Every workload reports
// every one of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// series is one metric of one workload across the repetitions of a report.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/median, the run-to-run noise -compare weighs a
	// difference against.
	Spread float64 `json:"spread"`
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
	s.Spread = spread(s.Values)
}

type workloadReport struct {
	Why     string `json:"why"`
	Clients int    `json:"clients"`
	// Operations and Failed hold one entry per untraced repetition; every
	// attempted operation is one latency sample.
	Operations []int              `json:"operations"`
	Failed     []int              `json:"failed"`
	EndToEnd   map[string]*series `json:"end_to_end"`
	// PerLayer comes from one traced run and never feeds a verdict.
	PerLayer map[string]*series `json:"per_layer"`
}

// report is the output of an all-workloads run: what -compare reads and
// what baseline.json is.
type report struct {
	Schema     int                        `json:"schema"`
	Commit     string                     `json:"git_commit"`
	GoVersion  string                     `json:"go_version"`
	NumCPU     int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Scale      string                     `json:"scale"`
	Reps       int                        `json:"repetitions"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload reps times untraced (seed, seed+1, …) and once
// traced, each run in a fresh child process: peak RSS is then per run, and
// the process-global answer-cache hooks of plan and sparql cannot leak from
// one workload into the next.
func runAll(seed int64, seconds float64, sc scale, reps int, outPath, workRoot string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep := &report{
		Schema: 1, Commit: gitCommit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Scale: sc.name, Reps: reps,
		Workloads: make(map[string]*workloadReport),
	}
	child := func(w string, s int64, trace bool) (*result, error) {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", map[bool]string{false: "0", true: "1"}[trace],
			"--scale", sc.name, "--work-dir", workRoot)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w, s, err)
		}
		return lastLineResult(stdout)
	}
	failed := false
	for _, spec := range workloads {
		wr := &workloadReport{Why: spec.why, Clients: spec.clients,
			EndToEnd: make(map[string]*series), PerLayer: make(map[string]*series)}
		rep.Workloads[spec.name] = wr
		collect := func(into map[string]*series, res *result) {
			for name, m := range res.Metrics {
				if into[name] == nil {
					into[name] = &series{Unit: m.Unit}
				}
				into[name].add(m.Value)
			}
		}
		for r := 0; r < reps; r++ {
			res, err := child(spec.name, seed+int64(r), false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			wr.Operations = append(wr.Operations, res.Attempted)
			wr.Failed = append(wr.Failed, res.Failed)
			failed = failed || !res.Correct
			collect(wr.EndToEnd, res)
		}
		res, err := child(spec.name, seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		failed = failed || !res.Correct
		collect(wr.PerLayer, res)
	}
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printSummary(os.Stderr, rep)
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: some operations failed or disagreed with the oracle")
		return 1
	}
	return 0
}

func lastLineResult(stdout []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line of the run is not a result: %w", err)
	}
	return &res, nil
}

// printSummary prints every end-to-end metric by name and unit, one row per
// (workload, metric), with the spread of the repetitions.
func printSummary(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\n%s, %d CPUs, GOMAXPROCS %d, commit %s, seed %d, %d repetition(s)\n",
		rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, rep.Commit, rep.Seed, rep.Reps)
	fmt.Fprintf(w, "%-13s %-18s %12s %-6s %8s %10s\n", "workload", "metric", "median", "unit", "spread", "samples")
	for _, spec := range workloads {
		wr := rep.Workloads[spec.name]
		if wr == nil {
			continue
		}
		for _, def := range endToEndMetrics {
			s := wr.EndToEnd[def.name]
			if s == nil {
				continue
			}
			fmt.Fprintf(w, "%-13s %-18s %12.4f %-6s %7.1f%% %10d\n", spec.name, def.name, s.Median, s.Unit, 100*s.Spread, median0(wr.Operations))
		}
	}
}

func median0(xs []int) int {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return int(median(fs))
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// exactCounts are per-layer metrics the program computes from its inputs
// alone: two runs of one commit on one seed must agree on them to the last
// digit. (federation.remote_calls_per_query is not among them: how the
// parallel mediator's sub-queries group into batched messages depends on
// which disjunct reaches the fetcher first.)
var exactCounts = []string{
	"rewrite.disjuncts_per_query", "federation.rows_shipped_per_query", "chase.inferred_per_stored",
}

// compareReports applies the regression bounds to every (end-to-end metric,
// workload) pair of two reports and returns the process exit code: 1 when
// any pair regressed or more operations failed, else 0. A pair whose
// recorded run-to-run spread exceeds its bound is unresolved — neither
// side may claim it — unless every new run beats every old run.
func compareReports(w io.Writer, oldPath, newPath string) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compare(w, oldRep, newRep)
}

func compare(w io.Writer, oldRep, newRep *report) int {
	if oldRep.NumCPU != newRep.NumCPU || oldRep.Seconds != newRep.Seconds || oldRep.Scale != newRep.Scale {
		fmt.Fprintf(w, "warning: the reports were taken under different conditions (%d CPUs, %gs, %s vs %d CPUs, %gs, %s)\n",
			oldRep.NumCPU, oldRep.Seconds, oldRep.Scale, newRep.NumCPU, newRep.Seconds, newRep.Scale)
	}
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %-6s %16s %7s  %s\n", "workload", "metric", "old", "new", "unit", "new/old", "bound", "verdict")
	regressions := 0
	for _, spec := range workloads {
		o, n := oldRep.Workloads[spec.name], newRep.Workloads[spec.name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-13s missing from one report\n", spec.name)
			regressions++
			continue
		}
		for _, def := range endToEndMetrics {
			so, sn := o.EndToEnd[def.name], n.EndToEnd[def.name]
			if so == nil || sn == nil || so.Median == 0 {
				fmt.Fprintf(w, "%-13s %-18s missing from one report\n", spec.name, def.name)
				regressions++
				continue
			}
			ratio := sn.Median / so.Median
			worse := ratio - 1
			if def.better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch noise := max(so.Spread, sn.Spread); {
			case noise > def.bound && allBetter(so.Values, sn.Values, def.better):
				verdict = "better in every run"
			case noise > def.bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% exceeds the bound)", 100*noise)
			case worse > def.bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-13s %-18s %12.4f %12.4f %-6s %6.3f of %-7.4g %6.0f%%  %s\n",
				spec.name, def.name, so.Median, sn.Median, def.unit, ratio, so.Median, 100*def.bound, verdict)
		}
		if fo, fn := total(o.Failed), total(n.Failed); fn > fo {
			fmt.Fprintf(w, "%-13s %-18s %12d %12d %-6s  REGRESSION (any increase)\n", spec.name, "failed operations", fo, fn, "count")
			regressions++
		}
		for _, name := range exactCounts {
			so, sn := o.PerLayer[name], n.PerLayer[name]
			if so != nil && sn != nil && so.Median != sn.Median {
				fmt.Fprintf(w, "%-13s %-34s %.6g -> %.6g %s (exact count moved)\n", spec.name, name, so.Median, sn.Median, so.Unit)
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

// allBetter reports whether every new value beats every old value.
func allBetter(old, new []float64, better string) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, n := range new {
		for _, o := range old {
			if (better == "lower" && n >= o) || (better == "higher" && n <= o) {
				return false
			}
		}
	}
	return true
}
