// Command benchmark is the repository's benchmark: five workloads over
// rpsd's peer endpoints, its /federated mediator, a mediator over real
// sockets, and the incremental chase, each reported as end-to-end metrics a
// user of the system would see, or — with --trace 1 — as per-layer metrics
// timed around the public functions of the modules under internal/.
//
//	go run ./benchmark --workload peer_cold --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload fed_wire --seed 1 --seconds 10 --trace 1
//	go run ./benchmark -reps 5 -out report.json          # every workload, with spread
//	go run ./benchmark -compare old.json new.json
//
// BENCHMARK.json at the repository root names the command the harness
// runs (benchmark/run.sh, which keeps the build inside the checkout) and
// the metrics with their regression bounds. README.md in this directory
// says what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload: peer_cold | peer_hot | fed_local | fed_wire | chase_update (default: all, as child processes)")
		seed     = flag.Int64("seed", 1, "seed of the generated systems and operation sequences")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase at HEAD on the reference box; sizes the fixed operation count")
		traceArg = flag.String("trace", "0", "1: replay a tenth of the workload in-process with spans and report per-layer metrics")
		scaleArg = flag.String("scale", "full", "full | tiny (smoke test)")
		reps     = flag.Int("reps", 1, "all-workloads mode: repetitions per workload, each with its own seed")
		out      = flag.String("out", "", "all-workloads mode: write the JSON report here (default: standard output)")
		compare  = flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
		workRoot = flag.String("work-dir", ".bench_build", "directory for binaries, generated systems and traces; created if missing")
	)
	flag.Parse()
	defer runCleanups()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	trace, err := strconv.ParseBool(*traceArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	sc, ok := scales[*scaleArg]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown scale %q\n", *scaleArg)
		return 2
	}
	if *workload == "" {
		return runAll(*seed, *seconds, sc, *reps, *out, *workRoot)
	}
	spec := findWorkload(*workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	res, err := runOne(spec, *seed, *seconds, sc, trace, *workRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runOne runs one workload in this process: builds rpsd if it is stale,
// gives the run a scratch directory under workRoot and removes it on the
// way out.
func runOne(spec *workloadSpec, seed int64, seconds float64, sc scale, trace bool, workRoot string) (*result, error) {
	start := time.Now()
	workRoot, err := filepath.Abs(workRoot)
	if err != nil {
		return nil, err
	}
	binDir := filepath.Join(workRoot, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(workRoot, "run-"+spec.name+"-")
	if err != nil {
		return nil, err
	}
	onExit(func() { os.RemoveAll(workDir) })
	cfg := &runConfig{
		spec: spec, seed: seed, seconds: seconds, sc: sc, workDir: workDir,
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s %6.1fs] %s\n", spec.name, time.Since(start).Seconds(), fmt.Sprintf(format, args...))
		},
	}
	if cfg.rpsd, err = buildRPSD(binDir); err != nil {
		return nil, err
	}
	var res *result
	if trace {
		res, err = runTraced(cfg, filepath.Join(workRoot, "trace-"+spec.name+".json"))
	} else {
		res, err = spec.run(cfg)
	}
	if err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(res.Metrics) {
		cfg.logf("%-34s %14.4f %s", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	cfg.logf("%d attempted, %d failed, run took %.1fs", res.Attempted, res.Failed, time.Since(start).Seconds())
	return res, nil
}
