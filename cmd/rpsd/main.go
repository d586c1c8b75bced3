// Command rpsd serves the peers of an RDF Peer System as SPARQL-over-HTTP
// endpoints — the "SPARQL access points" of the Section 5 prototype:
//
//	rpsd -system ./fig1/system.rps -listen :8080
//
// Each peer is mounted at /peer/<name> and accepts queries as
// application/sparql-query POST bodies, "query" form fields, or ?query=
// URL parameters; results are application/sparql-results+json. An index of
// peers (name, endpoint, schema size, triples) is served at /peers.
//
// The mediator of the prototype is mounted at /federated: a conjunctive
// SPARQL query posed there is rewritten under the system's mappings and
// executed by federating sub-queries over the per-peer endpoints, returning
// the certain answers. This is the complete architecture of Section 5 as a
// single deployable process (in production each peer endpoint would live on
// its own host; the mediator only needs their URLs in the registry). The
// mediator evaluates each rewritten body along its join graph, shipping
// bindings as batched VALUES probes while a join step's left side fits in
// one probe wave (-fed-batch × the in-flight window) and fetching the
// pattern's extension otherwise; rps_fed_join_steps_total at /metrics
// splits the steps by branch. A rewriting cut off at its size bound may
// miss answers: the response then carries X-RPS-Truncated: true.
//
// Operations endpoints and controls:
//
//   - /metrics exposes the process registry (request counts, latency
//     histograms, in-flight gauge, per-peer store gauges, chase and
//     federation counters) in the Prometheus text format.
//   - /debug/pprof/ serves the standard runtime profiles.
//   - -query-timeout bounds each request's evaluation: plan iterators poll
//     the request context and stop producing tuples at the deadline, and
//     federated sub-queries inherit it, so a runaway query cannot pin the
//     process. Timed-out requests answer 503.
//   - -slow-query logs any request slower than the threshold (0 disables).
//   - Slow clients are refused: a connection must deliver its request
//     headers within 10s and its whole request within a minute, and an
//     idle keep-alive connection closes after two minutes. Responses have
//     no write deadline, so a long NDJSON stream runs to completion.
//   - SIGINT/SIGTERM drain in-flight requests before the process exits.
//
// Fault tolerance on /federated: -fed-retries bounds the attempts per
// sub-query (transient failures retry with exponential backoff), and
// -fed-partial opts the mediator into graceful degradation — when a source stays unreachable
// after retries its contribution is skipped, the response carries the
// partial certain-answer subset, and the X-RPS-Partial header names the
// skipped sources. The federation_retry_*, federation_hedge_* and
// federation_breaker_* series appear at /metrics.
//
// Durability: with -data-dir set, every peer's store is backed by a
// write-ahead log plus snapshot checkpoints under <data-dir>/peers/<name>
// (internal/durable). On a cold start the Turtle data files are parsed and
// every batch is logged; on a restart the peers recover from their
// checkpoints and WAL tails instead of re-parsing Turtle, and the peer
// schemas are re-derived from the recovered data. -fsync picks the
// commit-path fsync policy (always | interval | never) and
// -checkpoint-every the number of logged ops between background
// checkpoints (0 leaves checkpointing to shutdown). Graceful shutdown
// writes a final checkpoint per peer so the next start replays no WAL.
// The stores' wal_* and checkpoint_* series appear at /metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/federation"
	"repro/internal/mapfile"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/wal"
)

// opsConfig carries the operational knobs every handler sees.
type opsConfig struct {
	// QueryTimeout bounds one request's evaluation; 0 means no deadline.
	QueryTimeout time.Duration
	// SlowQuery is the slow-query-log threshold; 0 disables the log.
	SlowQuery time.Duration
}

// Server timeouts. A client has readHeaderTimeout to send its request
// headers and readTimeout to send the whole request, and an idle
// keep-alive connection is closed after idleTimeout, so a slow or silent
// client cannot pin a connection. There is deliberately no write timeout:
// NDJSON streams may run as long as their scan, and -query-timeout bounds
// every response's evaluation.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newServer is rpsd's http.Server over h with the given read-side
// timeouts (main passes the constants above).
func newServer(h http.Handler, readHeader, read, idle time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, ReadTimeout: read, IdleTimeout: idle}
}

// localClient answers the mediator's sub-queries against co-hosted peers
// without a network round trip. It has no QueryStream, so the mediator
// reads each answer as a one-frame stream; a remote deployment substitutes
// peer.HTTPClient and endpoint URLs in the registry.
type localClient struct {
	peers map[string]*core.Peer
}

// QueryContext implements federation.Client. Every request evaluates
// against a point-in-time snapshot of the peer's store, so queries never
// block on — and are never torn by — concurrent bulk loads into the peer
// graphs, and evaluation stops producing tuples once the mediator's
// request context expires.
func (c localClient) QueryContext(ctx context.Context, addr, queryText string) (*sparql.Result, error) {
	p, ok := c.peers[addr]
	if !ok {
		return nil, fmt.Errorf("rpsd: unknown peer %q", addr)
	}
	q, err := sparql.Parse(queryText, nil)
	if err != nil {
		return nil, err
	}
	return q.EvalCtx(ctx, p.Data())
}

func main() {
	var (
		systemPath    = flag.String("system", "", "path to the system.rps file (required)")
		listen        = flag.String("listen", ":8080", "listen address")
		shards        = flag.Int("shards", 0, "graph store shard count (0 = one per CPU); higher values reduce lock contention under concurrent load")
		fedBatch      = flag.Int("fed-batch", 0, "probe batch size for the /federated mediator: bindings one probe query ships (0 = library default); a join step ships bindings while they fit in batch × in-flight window, else fetches the extension")
		fedRetries    = flag.Int("fed-retries", 3, "max attempts per federated sub-query (retries with exponential backoff on transient failures; 1 = no retries)")
		fedPartial    = flag.Bool("fed-partial", false, "degrade gracefully on /federated: skip sources that stay unreachable after retries and answer the partial certain-answer subset (reported in the X-RPS-Partial header) instead of failing")
		queryTimeout  = flag.Duration("query-timeout", 30*time.Second, "per-request evaluation deadline (0 = none); timed-out requests answer 503")
		slowQuery     = flag.Duration("slow-query", time.Second, "log requests slower than this (0 = disabled)")
		resultCache   = flag.Bool("result-cache", true, "cache query answers keyed on (query, store epoch vector) with singleflight collapsing of identical in-flight queries")
		resultCacheMB = flag.Int("result-cache-mb", 64, "answer cache byte budget in MiB")
		dataDir       = flag.String("data-dir", "", "durable storage root: per-peer WAL + checkpoints under <dir>/peers/<name>; restarts recover from it instead of re-parsing Turtle (empty = in-memory only)")
		fsync         = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always | interval | never")
		ckptEvery     = flag.Uint64("checkpoint-every", 10000, "logged ops between background checkpoints with -data-dir (0 = checkpoint only on shutdown)")
	)
	flag.Parse()
	if *systemPath == "" {
		fmt.Fprintln(os.Stderr, "rpsd: -system is required")
		os.Exit(1)
	}
	rdf.SetDefaultShardCount(*shards)
	var dur durableConfig
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpsd:", err)
			os.Exit(1)
		}
		dur = durableConfig{Dir: *dataDir, Policy: policy, CheckpointEvery: *ckptEvery}
	}
	fed := federation.Options{
		BatchSize: *fedBatch,
		Retry:     federation.RetryPolicy{MaxAttempts: *fedRetries},
		Partial:   *fedPartial,
	}
	if *resultCache {
		qc := qcache.New(int64(*resultCacheMB) << 20)
		plan.SetAnswerCache(qc.Layer("plan"))
		plan.SetNegativeAskCache(qcache.NewNegCache(4096))
		sparql.SetAnswerCache(qc.Layer("sparql"))
		fed.AnswerCache = qc
	}
	ops := opsConfig{QueryTimeout: *queryTimeout, SlowQuery: *slowQuery}
	mux, n, stores, err := buildMux(*systemPath, fed, ops, dur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpsd:", err)
		os.Exit(1)
	}
	log.Printf("rpsd: serving %d peers on %s (%d-shard graph stores)", n, *listen, rdf.DefaultShardCount())

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = serve(ctx, newServer(mux, readHeaderTimeout, readTimeout, idleTimeout), ln)
	// After the drain: write each peer's shutdown checkpoint and release
	// the logs, so the next start recovers from checkpoints alone.
	if cerr := stores.Close(); cerr != nil {
		log.Printf("rpsd: closing durable stores: %v", cerr)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// durableConfig carries the -data-dir wiring; the zero value disables
// durability (peers stay purely in-memory).
type durableConfig struct {
	Dir             string
	Policy          wal.SyncPolicy
	CheckpointEvery uint64
}

// peerStores owns the per-peer durable stores of one server instance.
type peerStores struct {
	stores []*durable.Store
}

// Close closes every store — final checkpoint, WAL flush and release —
// and returns the first error.
func (ps *peerStores) Close() error {
	var first error
	for _, st := range ps.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serve runs the server on the listener until it fails or ctx is canceled
// (SIGINT/SIGTERM in production); on cancellation it drains in-flight
// requests through Shutdown — bounded, so a wedged handler cannot block the
// exit forever — and returns nil for a clean stop.
func serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Print("rpsd: shutting down, draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("rpsd: shutdown: %w", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		return nil
	}
}

// HTTP-layer metrics. Per-endpoint series are registered lazily by
// instrumentHandler; the in-flight gauge is process-wide.
var httpInFlight = obs.Default.Gauge("rps_http_in_flight", "Requests currently being served.")

// statusWriter captures the response status for accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrumentHandler wraps an endpoint's handler with the ops layer: request
// and error counters and a latency histogram labelled by endpoint, the
// process-wide in-flight gauge, the per-request evaluation deadline, and
// the slow-query log.
func instrumentHandler(endpoint string, ops opsConfig, h http.Handler) http.Handler {
	label := fmt.Sprintf("{endpoint=%q}", endpoint)
	requests := obs.Default.Counter("rps_http_requests_total"+label, "HTTP requests served, by endpoint.")
	errors := obs.Default.Counter("rps_http_errors_total"+label, "HTTP responses with status >= 400, by endpoint.")
	latency := obs.Default.Histogram("rps_http_request_duration_us"+label, "Request latency in microseconds, by endpoint.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		httpInFlight.Add(1)
		defer httpInFlight.Add(-1)
		if ops.QueryTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), ops.QueryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		dur := time.Since(start)
		requests.Add(1)
		if sw.status >= 400 {
			errors.Add(1)
		}
		latency.ObserveDuration(dur)
		if ops.SlowQuery > 0 && dur >= ops.SlowQuery {
			log.Printf("rpsd: slow query: endpoint=%s method=%s path=%s status=%d dur=%s",
				endpoint, r.Method, r.URL.Path, sw.status, dur)
		}
	})
}

// registerGraphGauges exposes one peer store's internals as lazily-evaluated
// gauges: nothing is read until a scrape, and every read goes through the
// store's published atomics, so the gauges cost the hot paths nothing.
// Re-registering for the same peer replaces the collector, so rebuilding a
// server over fresh stores (tests, reloads) never scrapes a stale graph.
func registerGraphGauges(name string, g *rdf.Graph) {
	label := fmt.Sprintf("{peer=%q}", name)
	obs.Default.GaugeFunc("rps_graph_triples"+label, "Triples stored, by peer.",
		func() float64 { return float64(g.Len()) })
	obs.Default.GaugeFunc("rps_graph_epoch"+label, "Store epoch (monotonic publication count), by peer.",
		func() float64 { return float64(g.Epoch()) })
	obs.Default.GaugeFunc("rps_graph_terms"+label, "Interned terms, by peer.",
		func() float64 { return float64(g.TermCount()) })
	obs.Default.GaugeFunc("rps_graph_freelist_reuses"+label, "Trie nodes recycled from the per-shard free lists, by peer.",
		func() float64 { return float64(g.FreeListReuses()) })
	for i := 0; i < g.ShardCount(); i++ {
		shard := i
		obs.Default.GaugeFunc(
			fmt.Sprintf("rps_graph_shard_triples{peer=%q,shard=%q}", name, strconv.Itoa(shard)),
			"Triples stored, by peer and shard.",
			func() float64 { return float64(g.ShardLen(shard)) })
	}
}

// peerInfo is one row of the /peers index.
type peerInfo struct {
	Name     string `json:"name"`
	Endpoint string `json:"endpoint"`
	Triples  int    `json:"triples"`
	Schema   int    `json:"schemaIRIs"`
}

// buildMux mounts every peer of the system file on a fresh mux, plus the
// /peers index, the /federated mediator, and the operations endpoints
// (/metrics, /debug/pprof/). With a durable config it attaches a
// WAL-plus-checkpoint store to every peer before its data loads: a peer
// directory that already holds data recovers from it and skips the Turtle
// parse; a fresh one logs the Turtle load itself. The returned peerStores
// must be Closed on shutdown.
func buildMux(systemPath string, fed federation.Options, ops opsConfig, dur durableConfig) (*http.ServeMux, int, *peerStores, error) {
	stores := &peerStores{}
	var loadOpts mapfile.Options
	if dur.Dir != "" {
		loadOpts.PreparePeer = func(p *core.Peer) (bool, error) {
			st, err := durable.Attach(p.Data(), durable.Options{
				Dir:             filepath.Join(dur.Dir, "peers", p.Name()),
				Policy:          dur.Policy,
				CheckpointEvery: dur.CheckpointEvery,
			})
			if err != nil {
				return false, err
			}
			stores.stores = append(stores.stores, st)
			st.RegisterMetrics(obs.Default, p.Name())
			if st.Recovery().Recovered() {
				log.Printf("rpsd: peer %s: recovered %d triples at version %d (checkpoint %d + %d replayed commits)",
					p.Name(), p.Data().Len(), p.Data().Version(),
					st.Recovery().CheckpointVersion, st.Recovery().Replayed)
				return true, nil
			}
			return false, nil
		}
	}
	sys, _, err := mapfile.LoadWith(systemPath, loadOpts)
	if err != nil {
		// Peers prepared before the failing line still hold open WALs.
		_ = stores.Close()
		return nil, 0, nil, err
	}
	mux := http.NewServeMux()
	var index []peerInfo
	for _, p := range sys.Peers() {
		endpoint := "/peer/" + p.Name()
		mux.Handle(endpoint, instrumentHandler("peer", ops, peer.NewHTTPService(p)))
		registerGraphGauges(p.Name(), p.Data())
		index = append(index, peerInfo{
			Name: p.Name(), Endpoint: endpoint,
			Triples: p.Data().Len(), Schema: p.Schema().Len(),
		})
	}
	mux.Handle("/peers", instrumentHandler("peers", ops, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(index)
	})))

	// the mediator: the registry routes sub-queries by peer schema; here
	// the peers are co-hosted so the client evaluates in-process, but the
	// same engine runs against peer.HTTPClient when the registry holds
	// remote endpoint URLs
	reg := peer.NewRegistry()
	local := localClient{peers: make(map[string]*core.Peer)}
	for _, p := range sys.Peers() {
		reg.Add(peer.Entry{Name: p.Name(), Addr: p.Name(), Schema: p.Schema()})
		local.peers[p.Name()] = p
	}
	eng := federation.New(sys, reg, local, fed)
	mux.Handle("/federated", instrumentHandler("federated", ops, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveFederated(w, r, eng)
	})))

	// operations: the metrics scrape and the runtime profiles (mounted
	// explicitly — the pprof side effects on DefaultServeMux don't reach a
	// fresh mux)
	mux.Handle("/metrics", obs.Default.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux, len(index), stores, nil
}

// serveFederated answers a conjunctive SPARQL query with certain answers.
// The mediator runs under the request context: at the deadline every
// in-flight sub-query stops and the request answers 503.
func serveFederated(w http.ResponseWriter, r *http.Request, eng *federation.Engine) {
	queryText, err := peer.ExtractQuery(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sq, err := sparql.Parse(queryText, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q, err := sq.ToPatternQuery()
	if err != nil {
		http.Error(w, "the federated endpoint answers conjunctive queries: "+err.Error(),
			http.StatusBadRequest)
		return
	}
	answers, m, err := eng.AnswerCtx(r.Context(), q)
	if err != nil {
		status := http.StatusBadGateway
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	// under -fed-partial a degraded answer still succeeds; the header names
	// the sources whose contributions are missing so clients can tell a
	// complete answer from a subset
	if m != nil && m.Partial {
		skipped := make([]string, len(m.SkippedSources))
		for i, s := range m.SkippedSources {
			skipped[i] = s.Source
		}
		w.Header().Set("X-RPS-Partial", strings.Join(skipped, ","))
	}
	// likewise a rewriting cut off at its bound: the answer is sound but
	// may be incomplete, and the client must be able to tell
	if m != nil && m.RewriteTruncated {
		w.Header().Set("X-RPS-Truncated", "true")
	}
	res := &sparql.Result{Form: sparql.FormSelect, Vars: q.Free}
	if q.IsBoolean() {
		res = &sparql.Result{Form: sparql.FormAsk, True: answers.Len() > 0}
	} else {
		for _, t := range answers.Sorted() {
			res.Rows = append(res.Rows, pattern.Tuple(t))
		}
	}
	payload, err := peer.EncodeResult(res)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/sparql-results+json")
	_, _ = w.Write(payload)
}
