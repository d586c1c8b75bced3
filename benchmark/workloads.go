package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/mapfile"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// workloadSpec fixes what one workload runs. The measured phase is fixed
// work, not fixed time: opsPerSecond × the --seconds argument operations
// (never fewer than minOps), preceded by a discarded warm-up of a tenth as
// many. The rates are what HEAD sustains on the 2-core reference box, so
// --seconds is how long the measured phase takes there; a slower program
// runs longer, it does not get less work.
type workloadSpec struct {
	name         string
	why          string
	clients      int
	opsPerSecond int
	minOps       int
	run          func(*runConfig) (*result, error)
}

var workloads = []workloadSpec{
	{"peer_cold", "unique queries to /peer/<name> on the 240k-triple cloud: every request misses the answer cache, so sparql, plan and rdf execution do the work", 2, 1100, 10000, runPeerCold},
	{"peer_hot", "64 repeated queries to /peer/<name>, booted from a data-dir: every request is an answer-cache hit, so HTTP, parse, cache lookup, snapshot and encoding are all that is left", 2, 4700, 20000, runPeerHot},
	{"fed_local", "distinct conjunctive queries to /federated over co-hosted peers: rewriting, the mediator and its hash joins dominate and the wire does nothing", 2, 190, 2000, runFedLocal},
	{"fed_wire", "a mediator in the benchmark process over rpsd's HTTP peer endpoints with no answer cache: every query ships its pattern extensions as NDJSON streams", 2, 25, 400, runFedWire},
	{"chase_update", "library only: a chased film system with 10k equivalences takes one new film and answers film queries per operation, writes interleaved with reads on one graph", 1, 500, 5000, runChaseUpdate},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one invocation of one workload.
type runConfig struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	sc      scale
	workDir string // scratch space of this run, inside the checkout
	rpsd    string // path of the rpsd binary
	logf    func(format string, args ...any)
}

// ops returns the measured and warm-up operation counts.
func (c *runConfig) ops() (measured, warm int) {
	if c.sc.name == "tiny" {
		return 240, 24
	}
	measured = int(float64(c.spec.opsPerSecond) * c.seconds)
	if measured < c.spec.minOps {
		measured = c.spec.minOps
	}
	return measured, measured / 10
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// segment is one slice of the measured phase: consecutive operations, the
// wall time from the first one's start to the next segment's, and the CPU
// both processes spent meanwhile.
type segment struct {
	lat  []time.Duration
	wall time.Duration
	cpu  float64
}

// phase is the outcome of one measured closed-loop phase, cut into
// segments. Each end-to-end metric is the median over the segments of the
// metric computed per segment, so a second of interference from the
// machine, or one garbage collection more or less, moves one segment and
// not the result.
type phase struct {
	segments  []segment
	attempted int
	failed    int
}

// maxSegments bounds how finely a phase is cut; minSegmentOps keeps every
// segment large enough to carry its own p95 (ten samples beyond it).
const (
	maxSegments   = 10
	minSegmentOps = 20 * minBeyond
)

// closedLoop runs operations 0..n-1 from `clients` goroutines; each takes
// the next unclaimed operation when its previous one has completed. do
// reports whether the operation succeeded. The loop stops handing out
// operations after giveUp, so a program that got much slower ends the run
// with fewer attempts instead of blowing the harness's time limit. It
// returns the operations attempted, a prefix of 0..n-1.
func closedLoop(clients, n int, giveUp time.Duration, do func(client, i int) bool) (lat []time.Duration, failed int) {
	lat = make([]time.Duration, n)
	var next, fails atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				if time.Since(start) > giveUp {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t := time.Now()
				ok := do(c, i)
				lat[i] = time.Since(t)
				if !ok {
					fails.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return lat[:min(int(next.Load()), n)], int(fails.Load())
}

// measure runs a closed-loop phase of n operations. The client that claims
// the first operation of a segment notes the time and the CPU both
// processes have used so far; a segment is judged complete when the next
// one's note exists (or the phase ended normally).
func (c *runConfig) measure(srv *server, n int, do func(client, i int) bool) (*phase, error) {
	k := min(maxSegments, max(1, n/minSegmentOps))
	segLen := n / k
	type note struct {
		at  time.Time
		cpu float64
	}
	notes := make([]note, k+1)
	take := func() note {
		cpu := selfCPU()
		if srv != nil {
			// an rpsd that died shows as failed requests, not here
			sc, _ := procCPU(srv.cmd.Process.Pid)
			cpu += sc
		}
		return note{time.Now(), cpu}
	}
	giveUp := time.Duration(6 * c.seconds * float64(time.Second))
	lat, failed := closedLoop(c.spec.clients, n, giveUp, func(cl, i int) bool {
		if i%segLen == 0 && i/segLen < k {
			notes[i/segLen] = take()
		}
		return do(cl, i)
	})
	if len(lat) == n {
		notes[k] = take()
	}
	ph := &phase{attempted: len(lat), failed: failed}
	for s := 0; s < k && !notes[s+1].at.IsZero(); s++ {
		hi := (s + 1) * segLen
		if s == k-1 {
			hi = n
		}
		ph.segments = append(ph.segments, segment{
			lat:  lat[s*segLen : hi],
			wall: notes[s+1].at.Sub(notes[s].at),
			cpu:  notes[s+1].cpu - notes[s].cpu,
		})
	}
	if len(ph.segments) == 0 {
		return nil, fmt.Errorf("the measured phase gave up after %d of %d operations, before one segment of %d completed", len(lat), n, segLen)
	}
	return ph, nil
}

// measureServed is measure against a running rpsd: it also logs how the
// server's answer cache moved over the phase, reads its peak RSS when the
// phase ends, and stops it.
func (c *runConfig) measureServed(srv *server, n int, do func(client, i int) bool) (*phase, float64, error) {
	before, err := srv.scrape()
	if err != nil {
		return nil, 0, err
	}
	ph, err := c.measure(srv, n, do)
	if err != nil {
		return nil, 0, err
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, 0, err
	}
	c.qcacheDelta(before, after)
	rss, err := procPeakRSS(srv.cmd.Process.Pid)
	srv.stop()
	return ph, rss, err
}

// endToEnd turns a measured phase into the end-to-end metrics. Operations
// the oracle rejected after the phase are passed in lateFailures.
func endToEnd(ph *phase, setup []time.Duration, rssMB float64, lateFailures int) (*result, error) {
	var thr, p50, p95, cpu []float64
	for _, seg := range ph.segments {
		ms := millis(seg.lat)
		m, err := percentile(ms, 50)
		if err != nil {
			return nil, err
		}
		tail, err := percentile(ms, 95)
		if err != nil {
			return nil, err
		}
		ops := float64(len(seg.lat))
		thr, p50, p95, cpu = append(thr, ops/seg.wall.Seconds()), append(p50, m), append(p95, tail), append(cpu, seg.cpu*1000/ops)
	}
	setupS := make([]float64, len(setup))
	for i, d := range setup {
		setupS[i] = d.Seconds()
	}
	failed := ph.failed + lateFailures
	return &result{
		Correct:   failed == 0,
		Attempted: ph.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setupS), "s"},
			"throughput_ops_s": {median(thr), "ops/s"},
			"latency_p50_ms":   {median(p50), "ms"},
			"latency_p95_ms":   {median(p95), "ms"},
			"cpu_ms_per_op":    {median(cpu), "ms"},
			"peak_rss_mb":      {rssMB, "MB"},
		},
	}, nil
}

// ---- set-up shared by the rpsd workloads -----------------------------------

// saveSystem writes the generated system where rpsd will load it from.
func (c *runConfig) saveSystem(g generator) (string, error) {
	return mapfile.Save(g.system(), g.namespaces(), filepath.Join(c.workDir, "system"))
}

// bootServers boots rpsd n times over the same inputs, stopping all but
// the last, and returns the last server and every boot time.
func (c *runConfig) bootServers(n int, systemPath, dataDir string) (*server, []time.Duration, error) {
	var boots []time.Duration
	for i := 0; ; i++ {
		srv, err := startServer(c.rpsd, systemPath, dataDir, filepath.Join(c.workDir, "rpsd.log"))
		if err != nil {
			return nil, nil, err
		}
		boots = append(boots, srv.boot)
		if i == n-1 {
			c.logf("rpsd boots: %v", boots)
			return srv, boots, nil
		}
		srv.stop()
	}
}

// newHTTPClients returns one client, with its own connections, per
// closed-loop client, and the function that closes them.
func newHTTPClients(n int) ([]*http.Client, func()) {
	clients := make([]*http.Client, n)
	for i := range clients {
		clients[i] = newHTTPClient()
	}
	return clients, func() {
		for _, hc := range clients {
			hc.CloseIdleConnections()
		}
	}
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// post sends one SPARQL query and returns the body of a 200 answer with
// the SPARQL JSON content type; anything else is an error.
func post(hc *http.Client, url, query string) ([]byte, error) {
	resp, err := hc.Post(url, "application/sparql-query", strings.NewReader(query))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/sparql-results+json") {
		return nil, fmt.Errorf("content type %q", ct)
	}
	return body, nil
}

// qcacheDelta logs how rpsd's answer cache moved over the measured phase —
// the check that a workload hits or misses the cache as designed.
func (c *runConfig) qcacheDelta(before, after map[string]float64) {
	sum := func(m map[string]float64, prefix string) (v float64) {
		for k, x := range m {
			if strings.HasPrefix(k, prefix) {
				v += x
			}
		}
		return v
	}
	hits := sum(after, "qcache_hits_total") - sum(before, "qcache_hits_total")
	misses := sum(after, "qcache_misses_total") - sum(before, "qcache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	c.logf("rpsd qcache over the measured phase: hit ratio %.3f (%.0f hits, %.0f misses), %.0f evictions, %.0f stale drops, %.1f MB resident",
		ratio, hits, misses,
		after["qcache_evictions_total"]-before["qcache_evictions_total"],
		after["qcache_stale_drops_total"]-before["qcache_stale_drops_total"],
		after["qcache_bytes"]/(1<<20))
}

// ---- the correctness oracle ------------------------------------------------

// checkPeerAnswer compares a SPARQL JSON answer row for row with
// pattern.EvalNaive — Definition 1 executed literally — over the peer's
// stored graph.
func checkPeerAnswer(g rdf.Source, pq peerQuery, body []byte) error {
	res, err := peer.DecodeResult(body)
	if err != nil {
		return err
	}
	var want []string
	seen := make(map[string]bool)
	for _, mu := range pattern.EvalNaive(g, pq.q.GP) {
		row := make(pattern.Tuple, len(pq.q.Free))
		for i, v := range pq.q.Free {
			row[i] = mu[v]
		}
		k := row.Key()
		if pq.distinct && seen[k] {
			continue
		}
		seen[k] = true
		want = append(want, k)
	}
	got := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = row.Key()
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, EvalNaive has %d", pq.text, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d differs from EvalNaive", pq.text, i)
		}
	}
	return nil
}

// checkPeerAnswers verifies the given (query, body) pairs on all CPUs and
// returns how many disagree with the oracle.
func (c *runConfig) checkPeerAnswers(sys *core.System, qs []peerQuery, bodies [][]byte) int {
	var bad atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				if err := checkPeerAnswer(sys.Peer(qs[i].peer).Data(), qs[i], bodies[i]); err != nil {
					if bad.Add(1) <= 3 {
						c.logf("oracle: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}

// ---- peer_cold -------------------------------------------------------------

// oracleSample is how many peer answers of a run are compared row for row
// with EvalNaive; every other answer is checked for status, content type
// and a well-formed body.
const oracleSample = 200

func runPeerCold(c *runConfig) (*result, error) {
	g := newWorkloadGenerator(c)
	systemPath, err := c.saveSystem(g)
	if err != nil {
		return nil, err
	}
	srv, boots, err := c.bootServers(3, systemPath, "")
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	n, warm := c.ops()
	return c.servePeerQueries(g, srv, boots, g.peerQueries(warm), g.peerQueries(n), false)
}

// servePeerQueries is the measured phase of both peer workloads: POST each
// query to its peer's endpoint. With repeat, answers to a text seen before
// must equal the first answer byte for byte, and one answer per distinct
// text goes to the oracle; without, an evenly spread sample does.
func (c *runConfig) servePeerQueries(g generator, srv *server, boots []time.Duration, warm, qs []peerQuery, repeat bool) (*result, error) {
	clients, closeClients := newHTTPClients(c.spec.clients)
	defer closeClients()
	url := func(pq peerQuery) string { return srv.base + "/peer/" + pq.peer }
	closedLoop(c.spec.clients, len(warm), time.Minute, func(cl, i int) bool {
		_, err := post(clients[cl], url(warm[i]), warm[i].text)
		return err == nil
	})

	every := len(qs) / oracleSample
	if every < 1 {
		every = 1
	}
	var mu sync.Mutex
	first := make(map[string][]byte) // repeat: text → first body
	kept := make(map[int][]byte)     // !repeat: sampled op → body
	var logged atomic.Int64
	ph, rss, err := c.measureServed(srv, len(qs), func(cl, i int) bool {
		body, err := post(clients[cl], url(qs[i]), qs[i].text)
		if err != nil || len(body) == 0 {
			if logged.Add(1) <= 3 {
				c.logf("request failed: %v", err)
			}
			return false
		}
		if repeat {
			mu.Lock()
			prev, seen := first[qs[i].text]
			if !seen {
				first[qs[i].text] = body
			}
			mu.Unlock()
			return !seen || bytes.Equal(prev, body)
		}
		if i%every == 0 {
			mu.Lock()
			kept[i] = body
			mu.Unlock()
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	var checkQs []peerQuery
	var bodies [][]byte
	done := make(map[string]bool)
	for i, pq := range qs {
		if repeat {
			if body, ok := first[pq.text]; ok && !done[pq.text] {
				done[pq.text] = true
				checkQs, bodies = append(checkQs, pq), append(bodies, body)
			}
		} else if body, ok := kept[i]; ok {
			checkQs, bodies = append(checkQs, pq), append(bodies, body)
		}
	}
	bad := c.checkPeerAnswers(g.system(), checkQs, bodies)
	c.logf("oracle: %d answers compared with EvalNaive, %d differ", len(checkQs), bad)
	return endToEnd(ph, boots, rss, bad)
}

// ---- peer_hot --------------------------------------------------------------

// hotTexts is the size of the repeated query population.
const hotTexts = 64

func runPeerHot(c *runConfig) (*result, error) {
	g := newWorkloadGenerator(c)
	systemPath, err := c.saveSystem(g)
	if err != nil {
		return nil, err
	}
	// prime the data directory: an unmeasured boot from Turtle that logs
	// the load, and a graceful shutdown that checkpoints it
	dataDir := filepath.Join(c.workDir, "data")
	prime, err := startServer(c.rpsd, systemPath, dataDir, filepath.Join(c.workDir, "rpsd.log"))
	if err != nil {
		return nil, err
	}
	prime.stop()
	srv, boots, err := c.bootServers(3, systemPath, dataDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	logText, _ := os.ReadFile(srv.log)
	if !strings.Contains(string(logText), "recovered") {
		return nil, fmt.Errorf("rpsd did not recover from the primed data directory")
	}
	n, warm := c.ops()
	hot := g.hotQueries(hotTexts)
	rng := rand.New(rand.NewSource(c.seed))
	draw := func(k int) []peerQuery {
		out := make([]peerQuery, k)
		for i := range out {
			out[i] = hot[rng.Intn(len(hot))]
		}
		return out
	}
	// the warm-up makes every text resident
	warmQs := append(append([]peerQuery(nil), hot...), draw(warm)...)
	return c.servePeerQueries(g, srv, boots, warmQs, draw(n), true)
}

// ---- fed_local -------------------------------------------------------------

func cqText(q pattern.Query) string { return sparql.FromPatternQuery(q, nil).String() }

func runFedLocal(c *runConfig) (*result, error) {
	g := newWorkloadGenerator(c)
	systemPath, err := c.saveSystem(g)
	if err != nil {
		return nil, err
	}
	srv, boots, err := c.bootServers(5, systemPath, "")
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	u, err := chase.Run(g.system(), chase.Options{})
	if err != nil {
		return nil, err
	}
	n, warm := c.ops()
	warmQs, qs := g.cqs(warm), g.cqs(n)
	clients, closeClients := newHTTPClients(c.spec.clients)
	defer closeClients()
	url := srv.base + "/federated"
	closedLoop(c.spec.clients, warm, time.Minute, func(cl, i int) bool {
		_, err := post(clients[cl], url, cqText(warmQs[i]))
		return err == nil
	})
	texts := make([]string, n)
	for i, q := range qs {
		texts[i] = cqText(q)
	}
	bodies := make([][]byte, n)
	var logged atomic.Int64
	ph, rss, err := c.measureServed(srv, n, func(cl, i int) bool {
		body, err := post(clients[cl], url, texts[i])
		if err != nil {
			if logged.Add(1) <= 3 {
				c.logf("request failed: %v", err)
			}
			return false
		}
		bodies[i] = body
		return true
	})
	if err != nil {
		return nil, err
	}

	// every distinct query against the certain answers of the chase; a
	// truncated rewriting that lost answers shows up here
	bad, checked, rows := 0, 0, 0
	for i, body := range bodies {
		if body == nil {
			continue
		}
		checked++
		res, err := peer.DecodeResult(body)
		if err != nil || !res.TupleSet().Equal(u.CertainAnswers(qs[i])) {
			if bad++; bad <= 3 {
				c.logf("oracle: %s disagrees with the chase (decode error: %v)", texts[i], err)
			}
			continue
		}
		rows += len(res.Rows)
	}
	c.logf("oracle: %d answers (%d tuples) compared with chase.CertainAnswers, %d differ", checked, rows, bad)
	return endToEnd(ph, boots, rss, bad)
}

// ---- fed_wire --------------------------------------------------------------

// wireRegistry routes every peer of the system to rpsd's HTTP endpoint for
// it.
func wireRegistry(sys *core.System, base string) *peer.Registry {
	reg := peer.NewRegistry()
	for _, p := range sys.Peers() {
		reg.Add(peer.Entry{Name: p.Name(), Addr: base + "/peer/" + p.Name(), Schema: p.Schema()})
	}
	return reg
}

func runFedWire(c *runConfig) (*result, error) {
	g := newWorkloadGenerator(c)
	systemPath, err := c.saveSystem(g)
	if err != nil {
		return nil, err
	}
	// set-up is rpsd's boot plus building the mediator over its endpoints
	var setups []time.Duration
	var srv *server
	var eng *federation.Engine
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for i := 0; i < 5; i++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = startServer(c.rpsd, systemPath, "", filepath.Join(c.workDir, "rpsd.log")); err != nil {
			return nil, err
		}
		t := time.Now()
		eng = federation.New(g.system(), wireRegistry(g.system(), srv.base), &peer.HTTPClient{Client: hc}, federation.Options{})
		setups = append(setups, srv.boot+time.Since(t))
	}
	defer srv.stop()
	c.logf("rpsd boots + federation.New: %v", setups)
	u, err := chase.Run(g.system(), chase.Options{})
	if err != nil {
		return nil, err
	}
	n, warm := c.ops()
	warmQs, qs := g.cqs(warm), g.cqs(n)
	closedLoop(c.spec.clients, warm, time.Minute, func(_, i int) bool {
		_, _, err := eng.AnswerCtx(context.Background(), warmQs[i])
		return err == nil
	})
	answers := make([]*pattern.TupleSet, n)
	var rowsShipped, calls atomic.Int64
	var logged atomic.Int64
	ph, rss, err := c.measureServed(srv, n, func(_, i int) bool {
		ans, m, err := eng.AnswerCtx(context.Background(), qs[i])
		if err != nil || m.RewriteTruncated {
			if logged.Add(1) <= 3 {
				c.logf("query failed: %v (truncated rewriting: %v)", err, m != nil && m.RewriteTruncated)
			}
			return false
		}
		rowsShipped.Add(int64(m.RowsFetched))
		calls.Add(int64(m.RemoteCalls))
		answers[i] = ans
		return true
	})
	if err != nil {
		return nil, err
	}
	if self, err := procPeakRSS(os.Getpid()); err == nil && self > rss {
		rss = self // the mediator lives in this process
	}
	c.logf("mediator: %.0f rows shipped and %.1f remote calls per query",
		float64(rowsShipped.Load())/float64(ph.attempted), float64(calls.Load())/float64(ph.attempted))

	bad, checked := 0, 0
	for i, ans := range answers {
		if ans == nil {
			continue
		}
		checked++
		if !ans.Equal(u.CertainAnswers(qs[i])) {
			if bad++; bad <= 3 {
				c.logf("oracle: %s disagrees with the chase", qs[i])
			}
		}
	}
	c.logf("oracle: %d answers compared with chase.CertainAnswers, %d differ", checked, bad)
	return endToEnd(ph, setups, rss, bad)
}

// ---- chase_update ----------------------------------------------------------

// readsPerUpdate is how many film queries follow each inserted film. One
// insert costs about as much as this many reads, so the write and the read
// half of an operation weigh the same in its latency.
const readsPerUpdate = 16

// applyUpdate absorbs one source change into the universal solution.
func applyUpdate(u *chase.Universal, up update) error {
	for _, pt := range up.triples {
		if err := u.AddTriple(pt.peer, pt.t); err != nil {
			return err
		}
	}
	for _, e := range up.equivs {
		if err := u.AddEquivalence(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

func runChaseUpdate(c *runConfig) (*result, error) {
	g := newWorkloadGenerator(c)
	var setups []time.Duration
	var u *chase.Universal
	for i := 0; i < 3; i++ {
		u = nil
		runtime.GC()
		t := time.Now()
		var err error
		if u, err = chase.Run(g.system(), chase.Options{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
	}
	c.logf("chase.Run: %v, %d stored + %d inferred triples", setups, u.Graph.Len()-u.Stats.TriplesAdded, u.Stats.TriplesAdded)

	n, warm := c.ops()
	type op struct {
		up    update
		reads []pattern.Query
		want  []int
	}
	makeOps := func(k int) []op {
		out := make([]op, k)
		for i := range out {
			o := op{up: g.updates(1)[0], reads: g.cqs(readsPerUpdate)}
			for _, q := range o.reads {
				o.want = append(o.want, g.expected(q))
			}
			out[i] = o
		}
		return out
	}
	var writeLat, readLat []time.Duration
	var logged int
	do := func(ops []op) func(int, int) bool {
		return func(_, i int) bool {
			t := time.Now()
			if err := applyUpdate(u, ops[i].up); err != nil {
				c.logf("update failed: %v", err)
				return false
			}
			mid := time.Now()
			ok := true
			for k, q := range ops[i].reads {
				if got := u.CertainAnswers(q).Len(); got != ops[i].want[k] {
					if logged++; logged <= 3 {
						c.logf("oracle: %s has %d answers, the generator expects %d", q, got, ops[i].want[k])
					}
					ok = false
				}
			}
			writeLat = append(writeLat, mid.Sub(t))
			readLat = append(readLat, time.Since(mid))
			return ok
		}
	}
	warmOps := makeOps(warm)
	closedLoop(1, warm, time.Minute, do(warmOps))
	writeLat, readLat = nil, nil
	ops := makeOps(n)
	runtime.GC() // start every run's measured phase from a collected heap
	ph, err := c.measure(nil, n, do(ops))
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	c.logf("write half p50 %.3f ms, read half (%d queries) p50 %.3f ms",
		median(millis(writeLat)), readsPerUpdate, median(millis(readLat)))

	// the maintained solution against a chase of the extended system from
	// scratch, on the last queries asked
	fresh, err := chase.Run(g.system(), chase.Options{})
	if err != nil {
		return nil, err
	}
	bad, checked := 0, 0
	for i := len(ops) - 1; i >= 0 && checked < oracleSample; i-- {
		for _, q := range ops[i].reads {
			checked++
			if !u.CertainAnswers(q).Equal(fresh.CertainAnswers(q)) {
				if bad++; bad <= 3 {
					c.logf("oracle: %s differs between the maintained and a fresh chase", q)
				}
			}
		}
	}
	c.logf("oracle: %d answers compared with a fresh chase.Run, %d differ", checked, bad)
	return endToEnd(ph, setups, rss, bad)
}
