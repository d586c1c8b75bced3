package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/mapfile"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/sparql"
	"repro/internal/turtle"
	"repro/internal/wal"
)

// The traced run. It replays a tenth of the workload's operations
// in-process, on one goroutine, with a span around every call into a layer
// (a module under internal/), and derives each per-layer metric from the
// spans' self times or from counts taken at the same boundaries. Layers the
// workload's own operations never reach are still probed, on a small fixed
// number of operations over the workload's own generated system, so every
// traced run reports every per-layer metric. Nothing here feeds an
// end-to-end metric.

// perLayerMetrics is the per_layer list of BENCHMARK.json, in the order the
// README explains it.
var perLayerMetrics = []metricDef{
	{name: "sparql.parse_us", unit: "us", better: "lower"},
	{name: "sparql.eval_miss_us", unit: "us", better: "lower"},
	{name: "sparql.eval_hit_us", unit: "us", better: "lower"},
	{name: "plan.plan_us", unit: "us", better: "lower"},
	{name: "plan.execute_us", unit: "us", better: "lower"},
	{name: "plan.allocs_per_query", unit: "count", better: "lower"},
	{name: "plan.alloc_kb_per_query", unit: "KB", better: "lower"},
	{name: "plan.scan_rows_per_result", unit: "ratio", better: "lower"},
	{name: "plan.hashjoin_us_per_krow", unit: "us", better: "lower"},
	{name: "rdf.snapshot_ns", unit: "ns", better: "lower"},
	{name: "rdf.match_us_per_krow", unit: "us", better: "lower"},
	{name: "rdf.add_us", unit: "us", better: "lower"},
	{name: "rdf.batch_commit_us_per_ktriple", unit: "us", better: "lower"},
	{name: "rdf.heap_bytes_per_triple", unit: "B", better: "lower"},
	{name: "qcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "qcache.resident_mb", unit: "MB", better: "lower"},
	{name: "qcache.evictions", unit: "count", better: "lower"},
	{name: "qcache.stale_drops", unit: "count", better: "lower"},
	{name: "peer.handler_us", unit: "us", better: "lower"},
	{name: "peer.http_overhead_us", unit: "us", better: "lower"},
	{name: "peer.encode_us_per_krow", unit: "us", better: "lower"},
	{name: "peer.decode_us_per_krow", unit: "us", better: "lower"},
	{name: "peer.stream_us_per_krow", unit: "us", better: "lower"},
	{name: "peer.wire_bytes_per_row", unit: "B", better: "lower"},
	{name: "rewrite.rewrite_us", unit: "us", better: "lower"},
	{name: "rewrite.disjuncts_per_query", unit: "count", better: "lower"},
	{name: "federation.answer_us", unit: "us", better: "lower"},
	{name: "federation.self_us", unit: "us", better: "lower"},
	{name: "federation.wire_answer_us", unit: "us", better: "lower"},
	{name: "federation.remote_wait_us", unit: "us", better: "lower"},
	{name: "federation.remote_calls_per_query", unit: "count", better: "lower"},
	{name: "federation.rows_shipped_per_query", unit: "count", better: "lower"},
	{name: "federation.fetch_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "chase.run_ms", unit: "ms", better: "lower"},
	{name: "chase.inferred_per_stored", unit: "ratio", better: "lower"},
	{name: "chase.add_triple_us", unit: "us", better: "lower"},
	{name: "chase.update_us", unit: "us", better: "lower"},
	{name: "chase.certain_answers_us", unit: "us", better: "lower"},
	{name: "mapfile.load_ms", unit: "ms", better: "lower"},
	{name: "turtle.parse_us_per_ktriple", unit: "us", better: "lower"},
	{name: "durable.recover_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.write_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.bytes_per_triple", unit: "B", better: "lower"},
	{name: "wal.append_sync_us", unit: "us", better: "lower"},
	{name: "wal.fsyncs_per_commit", unit: "count", better: "lower"},
	{name: "wal.bytes_per_triple", unit: "B", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// layerRun is the state of one traced run.
type layerRun struct {
	c   *runConfig
	g   generator
	sys *core.System
	tr  *tracer
	// cur is the span that spans recorded from other goroutines (the
	// loopback server's handler, the mediator's client) are children of.
	cur atomic.Int64
	out map[string]float64

	qc       *qcache.Cache
	loopback string // base URL of the in-process peer endpoints
	u        *chase.Universal

	attempted, failed int
}

func (l *layerRun) set(name string, v float64) { l.out[name] = v }

// medianUS is the median self time of the named spans in microseconds.
func (l *layerRun) medianUS(self map[string][]float64, name string) float64 {
	return median(self[name]) / 1000
}

func (l *layerRun) fail(format string, args ...any) {
	if l.failed++; l.failed <= 3 {
		l.c.logf("oracle: "+format, args...)
	}
}

// newWorkloadGenerator builds the system a workload runs on.
func newWorkloadGenerator(c *runConfig) generator {
	switch c.spec.name {
	case "peer_cold", "peer_hot":
		return newLODGen(c.sc.bigFacts, c.sc.bigEntities, c.seed)
	case "chase_update":
		return newFilmGen(c.sc.films, c.seed)
	default:
		return newLODGen(c.sc.smallFacts, c.sc.smallEntities, c.seed)
	}
}

func runTraced(c *runConfig, tracePath string) (*result, error) {
	g := newWorkloadGenerator(c)
	l := &layerRun{c: c, g: g, sys: g.system(), tr: newTracer(true), out: make(map[string]float64)}
	l.cur.Store(-1)
	n, _ := c.ops()
	own := n / 10
	// operations of the kinds the workload does not run itself
	peerOps, cqOps, updOps := 200, 24, 50
	if c.sc.name == "tiny" {
		peerOps, cqOps, updOps = 40, 6, 10
	} else if c.sc.bigFacts == 25000 && strings.HasPrefix(c.spec.name, "peer_") {
		cqOps = 6 // one mediator query on the 240k cloud ships ~100k rows
	}
	switch c.spec.name {
	case "peer_cold", "peer_hot":
		peerOps = own
	case "fed_local", "fed_wire":
		cqOps = own
	case "chase_update":
		updOps = own
	}
	replayStart := time.Now()
	steps := []struct {
		name string
		run  func() error
	}{
		{"set-up layers", l.setupLayers},
		{"peer layers", func() error { return l.peerLayers(peerOps) }},
		{"mediator layers", func() error { return l.mediatorLayers(cqOps) }},
		{"chase and store layers", func() error { return l.chaseLayers(updOps) }},
	}
	for _, s := range steps {
		t := time.Now()
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		c.logf("%s took %.1fs", s.name, time.Since(t).Seconds())
	}
	l.traceOverhead(time.Since(replayStart))
	if err := l.tr.write(tracePath); err != nil {
		return nil, err
	}
	c.logf("%d spans written to %s", len(l.tr.spans), tracePath)
	l.logShares()

	res := &result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: make(map[string]metric)}
	for _, def := range perLayerMetrics {
		v, ok := l.out[def.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = metric{v, def.unit}
	}
	return res, nil
}

// traceOverhead estimates what recording the spans cost the replay: the
// spans recorded times the cost of one span, measured here on a scratch
// tracer, as a share of the replay's wall time. (Replaying the same
// operations a second time with spans off is not possible: the replay
// mutates the universal solution and fills the answer cache.)
func (l *layerRun) traceOverhead(replay time.Duration) {
	scratch := newTracer(true)
	const k = 200000
	t := time.Now()
	for i := 0; i < k; i++ {
		scratch.end(scratch.begin("x", -1, i))
	}
	perSpan := time.Since(t) / k
	l.set("trace.overhead_pct", 100*float64(perSpan)*float64(len(l.tr.spans))/float64(replay))
}

// logShares prints how the time of the workload's own operation splits
// across the layers the workload was built to stress (README: what each
// workload is for).
func (l *layerRun) logShares() {
	o := l.out
	switch l.c.spec.name {
	case "peer_cold":
		l.c.logf("executing the plan is %.0f%% of the request handler (plan.execute_us / peer.handler_us), answer cache hit ratio %.2f",
			100*o["plan.execute_us"]/o["peer.handler_us"], o["qcache.hit_ratio"])
	case "peer_hot":
		l.c.logf("answer cache hit ratio %.2f: the handler (%.0f us) never reaches the executor, which would have cost %.0f us (plan.execute_us)",
			o["qcache.hit_ratio"], o["peer.handler_us"], o["plan.execute_us"])
	case "fed_local":
		l.c.logf("rewriting and the mediator itself are %.0f%% of a co-hosted answer ((rewrite.rewrite_us + federation.self_us) / federation.answer_us)",
			100*(o["rewrite.rewrite_us"]+o["federation.self_us"])/o["federation.answer_us"])
	case "fed_wire":
		wire := o["federation.rows_shipped_per_query"] / 1000 * o["peer.stream_us_per_krow"]
		l.c.logf("encoding, streaming and decoding rows are %.0f%% of an answer over sockets (rows_shipped/1000 x peer.stream_us_per_krow / federation.wire_answer_us)",
			100*wire/o["federation.wire_answer_us"])
	case "chase_update":
		l.c.logf("an update is %.0f us of chase and store writes; the %d reads after it are %.0f us",
			o["chase.update_us"], readsPerUpdate, readsPerUpdate*o["chase.certain_answers_us"])
	}
}

// ---- set-up layers: mapfile, turtle, durable, checkpoint, wal ---------------

func (l *layerRun) setupLayers() error {
	systemPath, err := l.c.saveSystem(l.g)
	if err != nil {
		return err
	}
	l.tr.timed("mapfile.load", -1, 0, func() { _, _, err = mapfile.LoadWith(systemPath, mapfile.Options{}) })
	if err != nil {
		return err
	}
	first := l.sys.Peers()[0]
	ttl, err := os.ReadFile(filepath.Join(filepath.Dir(systemPath), first.Name()+".ttl"))
	if err != nil {
		return err
	}
	var triples []rdf.Triple
	l.tr.timed("turtle.parse", -1, 0, func() { triples, err = turtle.NewParser(string(ttl), rdf.NewNamespaces()).Parse() })
	if err != nil {
		return err
	}

	// every peer's store made durable the way rpsd -data-dir does it: load
	// through the WAL, checkpoint, close; then recover all of them
	root := filepath.Join(l.c.workDir, "durable")
	stored, ckptBytes := 0, int64(0)
	var walBytes uint64
	for _, p := range l.sys.Peers() {
		dir := filepath.Join(root, p.Name())
		g := rdf.NewGraph()
		st, err := durable.Attach(g, durable.Options{Dir: dir, Policy: wal.SyncAlways})
		if err != nil {
			return err
		}
		b := g.NewBatch()
		p.Data().ForEach(func(t rdf.Triple) bool { b.Add(t); return true })
		if _, err := b.CommitErr(); err != nil {
			return err
		}
		stored += g.Len()
		walBytes += st.WALStats().AppendedBytes
		var ckErr error
		l.tr.timed("checkpoint.write", -1, 0, func() { ckErr = st.Checkpoint() })
		if ckErr != nil {
			return ckErr
		}
		_ = filepath.WalkDir(filepath.Join(dir, "checkpoint"), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if info, err := d.Info(); err == nil {
					ckptBytes += info.Size()
				}
			}
			return nil
		})
		if err := st.Close(); err != nil {
			return err
		}
	}
	recovered := 0
	for _, p := range l.sys.Peers() {
		g := rdf.NewGraph()
		var st *durable.Store
		var err error
		l.tr.timed("durable.recover", -1, 0, func() {
			st, err = durable.Attach(g, durable.Options{Dir: filepath.Join(root, p.Name()), Policy: wal.SyncAlways})
		})
		if err != nil {
			return err
		}
		recovered += g.Len()
		if err := st.Close(); err != nil {
			return err
		}
	}
	if recovered != stored {
		return fmt.Errorf("recovered %d triples of %d", recovered, stored)
	}

	// the commit path: 32-triple batches through a durable store with
	// fsync=always, against the same batches into a plain graph
	const commits, batchSize = 64, 32
	plain, logged := rdf.NewGraph(), rdf.NewGraph()
	st, err := durable.Attach(logged, durable.Options{Dir: filepath.Join(root, "commit-path"), Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	before := st.WALStats()
	for i := 0; i+batchSize <= len(triples) && i < commits*batchSize; i += batchSize {
		for _, target := range []struct {
			name string
			g    *rdf.Graph
		}{{"rdf.commit_plain", plain}, {"wal.commit_synced", logged}} {
			b := target.g.NewBatch()
			for _, t := range triples[i : i+batchSize] {
				b.Add(t)
			}
			var err error
			l.tr.timed(target.name, -1, i/batchSize, func() { _, err = b.CommitErr() })
			if err != nil {
				return err
			}
		}
	}
	after := st.WALStats()
	if err := st.Close(); err != nil {
		return err
	}

	d := l.tr.durations()
	sumMS := func(name string) float64 { return total(d[name]) / 1e6 }
	l.set("mapfile.load_ms", sumMS("mapfile.load"))
	l.set("turtle.parse_us_per_ktriple", sumMS("turtle.parse")*1000/(float64(len(triples))/1000))
	l.set("checkpoint.write_ms", sumMS("checkpoint.write"))
	l.set("checkpoint.bytes_per_triple", float64(ckptBytes)/float64(stored))
	l.set("durable.recover_ms", sumMS("durable.recover"))
	l.set("wal.bytes_per_triple", float64(walBytes)/float64(stored))
	done := float64(len(d["wal.commit_synced"]))
	l.set("wal.append_sync_us", (median(d["wal.commit_synced"])-median(d["rdf.commit_plain"]))/1000)
	l.set("wal.fsyncs_per_commit", float64(after.Syncs-before.Syncs)/done)
	return nil
}

// ---- peer layers: sparql, plan, rdf reads, qcache, peer ---------------------

// installCaches plugs an answer cache in the way rpsd does by default.
func (l *layerRun) installCaches() {
	l.qc = qcache.New(64 << 20)
	plan.SetAnswerCache(l.qc.Layer("plan"))
	plan.SetNegativeAskCache(qcache.NewNegCache(4096))
	sparql.SetAnswerCache(l.qc.Layer("sparql"))
}

func removeCaches() {
	plan.SetAnswerCache(nil)
	plan.SetNegativeAskCache(nil)
	sparql.SetAnswerCache(nil)
}

// serveLoopback mounts every peer's HTTPService on a loopback listener in
// this process, each behind a shell that records the handler as a child of
// the span of the request that caused it.
func (l *layerRun) serveLoopback() (stop func(), err error) {
	mux := http.NewServeMux()
	for _, p := range l.sys.Peers() {
		svc := peer.NewHTTPService(p)
		mux.HandleFunc("/peer/"+p.Name(), func(w http.ResponseWriter, r *http.Request) {
			id := l.tr.begin("peer.handler", int(l.cur.Load()), -1)
			svc.ServeHTTP(w, r)
			l.tr.end(id)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(done) }()
	l.loopback = "http://" + ln.Addr().String()
	return func() { _ = srv.Close(); <-done }, nil
}

var actualRows = regexp.MustCompile(`^\s*(\w+).*\(actual rows=(\d+)`)

// scanRows runs the instrumented plan and returns the rows its scans and
// joins produced (examined) and the rows the root returned.
func scanRows(src rdf.Source, q pattern.Query) (examined, returned float64) {
	n := plan.Instrument(plan.QueryPlan(src, q))
	plan.Drain(n.Open(context.Background(), src))
	for i, line := range strings.Split(plan.Format(n), "\n") {
		m := actualRows.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows, _ := strconv.ParseFloat(m[2], 64)
		if i == 0 {
			returned = rows
		}
		if m[1] != "Distinct" && m[1] != "Project" {
			examined += rows
		}
	}
	return examined, returned
}

func (l *layerRun) peerLayers(n int) error {
	l.installCaches()
	defer removeCaches()
	stop, err := l.serveLoopback()
	if err != nil {
		return err
	}
	defer stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	own := strings.HasPrefix(l.c.spec.name, "peer_")

	qs := l.g.peerQueries(n)
	if l.c.spec.name == "peer_hot" {
		// the hot population, made resident before the replay
		hot := l.g.hotQueries(hotTexts)
		rng := rand.New(rand.NewSource(l.c.seed))
		for _, pq := range hot {
			if _, err := post(hc, l.loopback+"/peer/"+pq.peer, pq.text); err != nil {
				return err
			}
		}
		for i := range qs {
			qs[i] = hot[rng.Intn(len(hot))]
		}
	}
	var rows float64
	cache0 := l.qc.Stats()
	for i, pq := range qs {
		g := l.sys.Peer(pq.peer).Data()
		// the request as a client sees it, the handler as its child
		req := l.tr.begin("peer.request", -1, i)
		l.cur.Store(int64(req))
		body, err := post(hc, l.loopback+"/peer/"+pq.peer, pq.text)
		l.tr.end(req)
		l.cur.Store(-1)
		if err != nil {
			return err
		}
		// the same request cut at the layer boundaries the handler crosses
		op := l.tr.begin("peer.layers", -1, i)
		l.tr.timed("sparql.parse", op, i, func() { _, err = sparql.Parse(pq.text, nil) })
		if err != nil {
			return err
		}
		var snap *rdf.Snapshot
		l.tr.timed("rdf.snapshot", op, i, func() { snap = g.Snapshot() })
		var node plan.Node
		l.tr.timed("plan.plan", op, i, func() { node = plan.QueryPlan(snap, pq.q) })
		var out []pattern.Binding
		l.tr.timed("plan.execute", op, i, func() { out = plan.Drain(node.Open(ctx, snap)) })
		var res *sparql.Result
		l.tr.timed("peer.decode", op, i, func() { res, err = peer.DecodeResult(body) })
		if err != nil {
			return err
		}
		l.tr.timed("peer.encode", op, i, func() { _, err = peer.EncodeResult(res) })
		if err != nil {
			return err
		}
		l.tr.end(op)
		rows += float64(len(res.Rows))
		if own {
			l.attempted++
			// the served answer against the plan executed directly
			if res.TupleSet().Len() != len(out) {
				l.fail("%s: served %d distinct rows, the plan returns %d", pq.text, res.TupleSet().Len(), len(out))
			}
		}
	}
	cache1 := l.qc.Stats()

	// answers absent, then resident: fresh texts on a frozen snapshot
	fresh := l.g.peerQueries(min(n, 200))
	for i, pq := range fresh {
		q, err := sparql.Parse(pq.text, nil)
		if err != nil {
			return err
		}
		snap := l.sys.Peer(pq.peer).Data().Snapshot()
		for _, name := range []string{"sparql.eval_miss", "sparql.eval_hit"} {
			l.tr.timed(name, -1, i, func() { _, err = q.EvalCtx(ctx, snap) })
			if err != nil {
				return err
			}
		}
	}

	// allocation and scan counts of plan execution, single goroutine
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for _, pq := range fresh {
		snap := l.sys.Peer(pq.peer).Data().Snapshot()
		plan.Drain(plan.QueryPlan(snap, pq.q).Open(ctx, snap))
	}
	runtime.ReadMemStats(&ms1)
	var examined, returned float64
	for _, pq := range fresh[:min(len(fresh), 50)] {
		e, r := scanRows(l.sys.Peer(pq.peer).Data().Snapshot(), pq.q)
		examined, returned = examined+e, returned+r
	}

	// one bound predicate, scanned and streamed
	scanPeer, scanTP, _ := l.g.scanPatterns()
	pred := scanTP.P.Term()
	snap := l.sys.Peer(scanPeer).Data().Snapshot()
	var matched float64
	for i := 0; i < 5; i++ {
		matched = 0
		l.tr.timed("rdf.match", -1, i, func() {
			snap.Match(nil, &pred, nil, func(rdf.Triple) bool { matched++; return true })
		})
	}
	counter := &countingTransport{next: http.DefaultTransport}
	streamer := &peer.HTTPClient{Client: &http.Client{Transport: counter}}
	scanText := newPeerQuery(scanPeer, pattern.MustQuery(scanTP.Vars(), pattern.GraphPattern{scanTP}), false).text
	var streamed float64
	for i := 0; i < 5; i++ {
		var res *sparql.Result
		var err error
		l.tr.timed("peer.stream", -1, i, func() {
			var rs *peer.ResultStream
			if rs, err = streamer.QueryStream(ctx, l.loopback+"/peer/"+scanPeer, scanText); err == nil {
				res, err = rs.Result()
			}
		})
		if err != nil {
			return err
		}
		streamed = float64(len(res.Rows))
	}
	if streamed != matched {
		l.fail("streamed scan of %v has %v rows, Match has %v", scanTP, streamed, matched)
	}

	self := l.tr.selfTimes()
	d := l.tr.durations()
	sumUS := func(name string) float64 { return total(d[name]) / 1000 }
	l.set("peer.handler_us", median(d["peer.handler"])/1000)
	l.set("peer.http_overhead_us", l.medianUS(self, "peer.request"))
	for _, name := range []string{"sparql.parse", "plan.plan", "plan.execute", "sparql.eval_miss", "sparql.eval_hit"} {
		l.set(name+"_us", l.medianUS(self, name))
	}
	l.set("rdf.snapshot_ns", median(self["rdf.snapshot"]))
	krows := max(rows, 1) / 1000
	l.set("peer.encode_us_per_krow", sumUS("peer.encode")/krows)
	l.set("peer.decode_us_per_krow", sumUS("peer.decode")/krows)
	l.set("rdf.match_us_per_krow", median(d["rdf.match"])/1000/(max(matched, 1)/1000))
	l.set("peer.stream_us_per_krow", median(d["peer.stream"])/1000/(max(streamed, 1)/1000))
	l.set("peer.wire_bytes_per_row", float64(counter.bytes.Load())/5/max(streamed, 1))
	l.set("plan.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(fresh)))
	l.set("plan.alloc_kb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(len(fresh)))
	l.set("plan.scan_rows_per_result", examined/max(returned, 1))
	if !strings.HasPrefix(l.c.spec.name, "fed_") {
		l.setCacheMetrics(cache0, cache1)
	}
	return nil
}

// setCacheMetrics reports how the answer cache moved over the workload's
// own replay: peer requests, or the co-hosted mediator's fetches.
func (l *layerRun) setCacheMetrics(before, after qcache.Stats) {
	ratio := 0.0
	if looked := float64(after.Hits - before.Hits + after.Misses - before.Misses); looked > 0 {
		ratio = float64(after.Hits-before.Hits) / looked
	}
	l.set("qcache.hit_ratio", ratio)
	l.set("qcache.resident_mb", float64(after.Bytes)/(1<<20))
	l.set("qcache.evictions", float64(after.Evictions-before.Evictions))
	l.set("qcache.stale_drops", float64(after.StaleDrops-before.StaleDrops))
}

// countingTransport counts response body bytes.
type countingTransport struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// ---- mediator layers: chase.Run, rewrite, federation, hash join -------------

// coHosted answers the mediator's sub-queries against peers in this
// process, as rpsd's /federated does, recording each call as a child of
// the answer it serves.
type coHosted struct {
	l *layerRun
}

func (c coHosted) Query(addr, text string) (*sparql.Result, error) {
	return c.QueryContext(context.Background(), addr, text)
}

func (c coHosted) QueryContext(ctx context.Context, addr, text string) (*sparql.Result, error) {
	id := c.l.tr.begin("federation.client", int(c.l.cur.Load()), -1)
	defer c.l.tr.end(id)
	q, err := sparql.Parse(text, nil)
	if err != nil {
		return nil, err
	}
	return q.EvalCtx(ctx, c.l.sys.Peer(addr).Data())
}

// waitTransport records the time the mediator spends waiting on the wire —
// each round trip up to the response headers, and each read of a response
// body — as children of the answer it serves. Embedded in peer.HTTPClient
// it keeps every client interface the engine discovers (batch, context,
// stream) and times all of them.
type waitTransport struct {
	l    *layerRun
	next http.RoundTripper
}

func (t *waitTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.l.tr.begin("federation.remote_wait", int(t.l.cur.Load()), -1)
	resp, err := t.next.RoundTrip(r)
	t.l.tr.end(id)
	if err == nil {
		resp.Body = &waitBody{ReadCloser: resp.Body, t: t}
	}
	return resp, err
}

type waitBody struct {
	io.ReadCloser
	t *waitTransport
}

func (b *waitBody) Read(p []byte) (int, error) {
	id := b.t.l.tr.begin("federation.remote_wait", int(b.t.l.cur.Load()), -1)
	n, err := b.ReadCloser.Read(p)
	b.t.l.tr.end(id)
	return n, err
}

func (l *layerRun) mediatorLayers(n int) error {
	var err error
	l.tr.timed("chase.run", -1, 0, func() { l.u, err = chase.Run(l.sys, chase.Options{}) })
	if err != nil {
		return err
	}
	stored := l.u.Graph.Len() - l.u.Stats.TriplesAdded
	l.set("chase.run_ms", median(l.tr.durations()["chase.run"])/1e6)
	l.set("chase.inferred_per_stored", float64(l.u.Stats.TriplesAdded)/float64(stored))

	// the co-hosted mediator with rpsd's default answer cache, and the
	// library default (no cache) over loopback sockets
	l.installCaches()
	defer removeCaches()
	stop, err := l.serveLoopback()
	if err != nil {
		return err
	}
	defer stop()
	ropts := l.g.rewriteOptions()
	reg := peer.NewRegistry()
	for _, p := range l.sys.Peers() {
		reg.Add(peer.Entry{Name: p.Name(), Addr: p.Name(), Schema: p.Schema()})
	}
	local := federation.New(l.sys, reg, coHosted{l}, federation.Options{Rewrite: ropts, AnswerCache: l.qc})
	wt := &waitTransport{l: l, next: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
	defer wt.next.(*http.Transport).CloseIdleConnections()
	wire := federation.New(l.sys, wireRegistry(l.sys, l.loopback),
		&peer.HTTPClient{Client: &http.Client{Transport: wt}}, federation.Options{Rewrite: ropts})

	own := strings.HasPrefix(l.c.spec.name, "fed_")
	ctx := context.Background()
	var disjuncts, calls, shipped, hits, localCalls float64
	cache0 := l.qc.Stats()
	for i, q := range l.g.cqs(n) {
		op := l.tr.begin("federation.op", -1, i)
		var rw *rewrite.Result
		rwSpan := l.tr.begin("rewrite.rewrite", op, i)
		rw, err = rewrite.Rewrite(q, l.sys, ropts)
		l.tr.end(rwSpan)
		if err != nil {
			return err
		}
		a := l.tr.begin("federation.answer", op, i)
		l.cur.Store(int64(a))
		ans, m, err := local.AnswerCtx(ctx, q)
		l.tr.end(a)
		if err != nil {
			return err
		}
		w := l.tr.begin("federation.wire_answer", op, i)
		l.cur.Store(int64(w))
		wans, wm, err := wire.AnswerCtx(ctx, q)
		l.tr.end(w)
		l.cur.Store(-1)
		l.tr.end(op)
		if err != nil {
			return err
		}
		disjuncts += float64(rw.Size())
		calls += float64(wm.RemoteCalls)
		shipped += float64(wm.RowsFetched)
		hits += float64(m.CacheHits)
		localCalls += float64(m.RemoteCalls)
		if own {
			l.attempted++
		}
		if !rw.Truncated && own {
			want := l.u.CertainAnswers(q)
			if m.RewriteTruncated || wm.RewriteTruncated || !ans.Equal(want) || !wans.Equal(want) {
				l.fail("%s: the mediators disagree with the chase", q)
			}
		}
	}

	if own {
		l.setCacheMetrics(cache0, l.qc.Stats())
	}

	// the mediator's join on extension-sized inputs
	scanPeer, tpA, tpB := l.g.scanPatterns()
	src := l.sys.Peer(scanPeer).Data().Snapshot()
	left, right := pattern.EvalTriplePattern(src, tpA), pattern.EvalTriplePattern(src, tpB)
	var joined int
	for i := 0; i < 3; i++ {
		l.tr.timed("plan.hashjoin", -1, i, func() { joined = len(plan.HashJoinBindings(left, right)) })
	}

	// Engine.AnswerCtx rewrites before it fetches: the mediator's own time
	// is the answer's self time (the calls into the client are its child
	// spans) minus the rewriting of the same query; the wait on the wire is
	// what the transport's spans cover of the answer over sockets
	d, self := l.tr.durations(), l.tr.selfTimes()
	var selfUS, waitUS []float64
	for i := range d["federation.answer"] {
		selfUS = append(selfUS, (self["federation.answer"][i]-d["rewrite.rewrite"][i])/1000)
		waitUS = append(waitUS, (d["federation.wire_answer"][i]-self["federation.wire_answer"][i])/1000)
	}
	l.set("rewrite.rewrite_us", median(d["rewrite.rewrite"])/1000)
	l.set("rewrite.disjuncts_per_query", disjuncts/float64(n))
	l.set("federation.answer_us", median(d["federation.answer"])/1000)
	l.set("federation.self_us", median(selfUS))
	l.set("federation.wire_answer_us", median(d["federation.wire_answer"])/1000)
	l.set("federation.remote_wait_us", median(waitUS))
	l.set("federation.remote_calls_per_query", calls/float64(n))
	l.set("federation.rows_shipped_per_query", shipped/float64(n))
	l.set("federation.fetch_cache_hit_ratio", hits/max(hits+localCalls, 1))
	l.set("plan.hashjoin_us_per_krow", median(d["plan.hashjoin"])/1000/(float64(len(left)+len(right)+joined)/1000))
	return nil
}

// ---- chase and store layers: incremental chase, rdf writes ------------------

func (l *layerRun) chaseLayers(n int) error {
	own := l.c.spec.name == "chase_update"
	reads := 1
	if own {
		reads = readsPerUpdate
	}
	for i := 0; i < n; i++ {
		// one at a time: the reads that follow may ask for any film
		// inserted so far, and only those
		up := l.g.updates(1)[0]
		op := l.tr.begin("chase.op", -1, i)
		w := l.tr.begin("chase.update", op, i)
		for _, pt := range up.triples {
			var err error
			l.tr.timed("chase.add_triple", w, i, func() { err = l.u.AddTriple(pt.peer, pt.t) })
			if err != nil {
				return err
			}
		}
		for _, e := range up.equivs {
			var err error
			l.tr.timed("chase.add_equivalence", w, i, func() { err = l.u.AddEquivalence(e[0], e[1]) })
			if err != nil {
				return err
			}
		}
		l.tr.end(w)
		for _, q := range l.g.cqs(reads) {
			var got int
			l.tr.timed("chase.certain_answers", op, i, func() { got = l.u.CertainAnswers(q).Len() })
			if want := l.g.expected(q); own && want >= 0 && got != want {
				l.fail("%s has %d answers, the generator expects %d", q, got, want)
			}
		}
		l.tr.end(op)
		if own {
			l.attempted++
		}
	}

	// single adds to the chased graph, batch commits and heap cost of a
	// fresh one
	first := l.sys.Peers()[0].Data().Triples()
	junk := rdf.IRI("http://benchmark.example.org/added")
	const adds = 2000
	t := time.Now()
	for i := 0; i < adds; i++ {
		l.u.Graph.Add(rdf.Triple{S: first[i%len(first)].S, P: junk, O: rdf.Literal(strconv.Itoa(i))})
	}
	addUS := micros(time.Since(t)) / adds

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	fresh := rdf.NewGraph()
	batchSize := min(1000, len(first))
	for i := 0; i+batchSize <= len(first); i += batchSize {
		b := fresh.NewBatch()
		for _, t := range first[i : i+batchSize] {
			b.Add(t)
		}
		l.tr.timed("rdf.batch_commit", -1, i/batchSize, func() { b.Commit() })
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	loaded := fresh.Len()
	runtime.KeepAlive(fresh)

	self := l.tr.selfTimes()
	d := l.tr.durations()
	l.set("chase.add_triple_us", l.medianUS(self, "chase.add_triple"))
	l.set("chase.update_us", median(d["chase.update"])/1000)
	l.set("chase.certain_answers_us", l.medianUS(self, "chase.certain_answers"))
	l.set("rdf.add_us", addUS)
	perBatch := median(d["rdf.batch_commit"]) / 1000
	l.set("rdf.batch_commit_us_per_ktriple", perBatch/(float64(batchSize)/1000))
	l.set("rdf.heap_bytes_per_triple", float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc))/float64(loaded))
	return nil
}
