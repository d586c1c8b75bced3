package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/mapfile"
	"repro/internal/peer"
	"repro/internal/rewrite"
	"repro/internal/wal"
	"repro/internal/workload"
)

func TestBuildMuxServesPeers(t *testing.T) {
	dir := t.TempDir()
	path, err := mapfile.Save(workload.Figure1System(), workload.FilmNamespaces(), dir)
	if err != nil {
		t.Fatal(err)
	}
	mux, n, _, err := buildMux(path, federation.Options{}, opsConfig{}, durableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("peers = %d", n)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// the index
	resp, err := srv.Client().Get(srv.URL + "/peers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var index []peerInfo
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	if len(index) != 3 || index[0].Triples == 0 {
		t.Errorf("index = %+v", index)
	}

	// a SPARQL query against one peer
	c := &peer.HTTPClient{Client: srv.Client()}
	res, err := c.Query(srv.URL+"/peer/source3",
		`SELECT ?x ?y WHERE { ?x <http://example.org/age> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}

	// unknown peer is a 404
	resp2, err := srv.Client().Post(srv.URL+"/peer/nope", "application/sparql-query",
		strings.NewReader("ASK { ?s ?p ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	_, _ = io.ReadAll(resp2.Body)
	if resp2.StatusCode != 404 {
		t.Errorf("unknown peer status = %d", resp2.StatusCode)
	}
}

func TestBuildMuxMissingSystem(t *testing.T) {
	if _, _, _, err := buildMux("/nonexistent/system.rps", federation.Options{}, opsConfig{}, durableConfig{}); err == nil {
		t.Error("missing system accepted")
	}
}

// A rewriting cut off at Rewrite.MaxQueries may have lost answers; the
// /federated response must say so instead of passing for complete.
func TestFederatedTruncatedHeader(t *testing.T) {
	path, err := mapfile.Save(workload.Figure1System(), workload.FilmNamespaces(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mux, _, _, err := buildMux(path, federation.Options{Rewrite: rewrite.Options{MaxQueries: 50}}, opsConfig{}, durableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, tc := range []struct {
		query string
		want  string
	}{
		// Example 1 rewrites into ~20k disjuncts under the equivalences
		{`PREFIX DB1: <http://db1.example.org/> PREFIX ex: <http://example.org/>
		  SELECT ?x ?y WHERE { DB1:Spiderman ex:starring ?z . ?z ex:artist ?x . ?x ex:age ?y }`, "true"},
		{`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:age "59" }`, ""},
	} {
		resp, err := srv.Client().Post(srv.URL+"/federated", "application/sparql-query", strings.NewReader(tc.query))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.query, resp.StatusCode)
		}
		if got := resp.Header.Get("X-RPS-Truncated"); got != tc.want {
			t.Errorf("%s: X-RPS-Truncated = %q, want %q", tc.query, got, tc.want)
		}
	}
}

// /federated answers a query whose rewriting ships a renamed-apart GMA
// variable (?g<N>·b_y) to the peers: the starring pattern with its artist
// join absorbed by the Figure 1 mapping's existential.
func TestFederatedRewritingVariable(t *testing.T) {
	path, err := mapfile.Save(workload.Figure1System(), workload.FilmNamespaces(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mux, _, _, err := buildMux(path, federation.Options{}, opsConfig{}, durableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := &peer.HTTPClient{Client: srv.Client()}
	res, err := c.Query(srv.URL+"/federated", `PREFIX ex: <http://example.org/> ASK { ?x ex:starring ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.True {
		t.Error("ASK { ?x ex:starring ?z } should be true")
	}
	res, err = c.Query(srv.URL+"/federated", `PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:starring ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("federated endpoint returned %d films with a cast, want 3", len(res.Rows))
	}
}

func TestFederatedEndpoint(t *testing.T) {
	dir := t.TempDir()
	path, err := mapfile.Save(workload.Figure1System(), workload.FilmNamespaces(), dir)
	if err != nil {
		t.Fatal(err)
	}
	mux, _, _, err := buildMux(path, federation.Options{}, opsConfig{}, durableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &peer.HTTPClient{Client: srv.Client()}
	res, err := c.Query(srv.URL+"/federated", `
		PREFIX DB1: <http://db1.example.org/>
		PREFIX ex: <http://example.org/>
		SELECT ?x ?y WHERE { DB1:Spiderman ex:starring ?z . ?z ex:artist ?x . ?x ex:age ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Errorf("federated endpoint returned %d rows, want 6 (Listing 1)", len(res.Rows))
	}
	// the same query against a single peer endpoint stays empty
	res, err = c.Query(srv.URL+"/peer/source1", `
		PREFIX DB1: <http://db1.example.org/>
		PREFIX ex: <http://example.org/>
		SELECT ?x ?y WHERE { DB1:Spiderman ex:starring ?z . ?z ex:artist ?x . ?x ex:age ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("single-peer query should be empty, got %d rows", len(res.Rows))
	}
	// boolean federated query
	res, err = c.Query(srv.URL+"/federated", `
		PREFIX DB1: <http://db1.example.org/>
		PREFIX ex: <http://example.org/>
		ASK { DB1:Toby_Maguire ex:age "39" }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.True {
		t.Error("federated ASK should be true")
	}
	// non-conjunctive query is a 400
	if _, err := c.Query(srv.URL+"/federated",
		`SELECT ?x WHERE { { ?x ?p ?o } UNION { ?o ?p ?x } }`); err == nil {
		t.Error("non-conjunctive query accepted")
	}
}

// /peer/<name> and /federated decode a request the same way (the SPARQL
// 1.1 Protocol, peer.ExtractQuery): what one answers, the other answers,
// and what one rejects as a bad request, so does the other.
func TestPeerAndFederatedDecodeRequestsAlike(t *testing.T) {
	dir := t.TempDir()
	path, err := mapfile.Save(workload.Figure1System(), workload.FilmNamespaces(), dir)
	if err != nil {
		t.Fatal(err)
	}
	mux, _, _, err := buildMux(path, federation.Options{}, opsConfig{}, durableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const query = `SELECT ?x ?y WHERE { ?x <http://example.org/age> ?y }`
	for _, tc := range []struct {
		name  string
		get   bool
		ct    string
		body  string
		class int // status / 100
	}{
		{name: "GET", get: true, class: 2},
		{name: "sparql-query POST", ct: "application/sparql-query", body: query, class: 2},
		{name: "form POST", ct: "application/x-www-form-urlencoded", body: url.Values{"query": {query}}.Encode(), class: 2},
		{name: "body over 1 MiB", ct: "application/sparql-query", body: query + strings.Repeat(" ", 1<<20), class: 4},
		{name: "text/plain POST", ct: "text/plain", body: query, class: 4},
	} {
		for _, endpoint := range []string{"/peer/source3", "/federated"} {
			var resp *http.Response
			if tc.get {
				resp, err = srv.Client().Get(srv.URL + endpoint + "?query=" + url.QueryEscape(query))
			} else {
				resp, err = srv.Client().Post(srv.URL+endpoint, tc.ct, strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode/100 != tc.class {
				t.Errorf("%s to %s: status %d, want %dxx", tc.name, endpoint, resp.StatusCode, tc.class)
			}
		}
	}
}

// TestBuildMuxDurableRestart drives the full -data-dir lifecycle: a cold
// start parses Turtle and logs it, a clean shutdown checkpoints, and the
// restart recovers every peer from disk — same answers, same /peers
// index, schemas re-derived — with the wal_* and checkpoint_* series on
// /metrics.
func TestBuildMuxDurableRestart(t *testing.T) {
	dir := t.TempDir()
	path, err := mapfile.Save(workload.Figure1System(), workload.FilmNamespaces(), dir)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	dur := durableConfig{Dir: dataDir, Policy: wal.SyncAlways, CheckpointEvery: 0}

	query := func(mux http.Handler) ([]peerInfo, int) {
		srv := httptest.NewServer(mux)
		defer srv.Close()
		resp, err := srv.Client().Get(srv.URL + "/peers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var index []peerInfo
		if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
			t.Fatal(err)
		}
		c := &peer.HTTPClient{Client: srv.Client()}
		res, err := c.Query(srv.URL+"/peer/source3",
			`SELECT ?x ?y WHERE { ?x <http://example.org/age> ?y }`)
		if err != nil {
			t.Fatal(err)
		}
		return index, len(res.Rows)
	}

	mux, n, stores, err := buildMux(path, federation.Options{}, opsConfig{}, dur)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(stores.stores) != 3 {
		t.Fatalf("peers = %d, stores = %d", n, len(stores.stores))
	}
	for _, st := range stores.stores {
		if st.Recovery().Recovered() {
			t.Fatal("cold start reported a recovery")
		}
	}
	coldIndex, coldRows := query(mux)
	if err := stores.Close(); err != nil {
		t.Fatalf("shutdown close: %v", err)
	}

	// a warm start reads the checkpoints, never the Turtle sources
	ttl, err := filepath.Glob(filepath.Join(dir, "*.ttl"))
	if err != nil || len(ttl) == 0 {
		t.Fatalf("no Turtle sources next to the system file: %v", err)
	}
	for _, f := range ttl {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}

	mux2, _, stores2, err := buildMux(path, federation.Options{}, opsConfig{}, dur)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer stores2.Close()
	recovered := 0
	for _, st := range stores2.stores {
		if st.Recovery().Recovered() {
			recovered++
		}
		if st.Recovery().Replayed != 0 {
			t.Errorf("clean shutdown should leave no WAL tail, replayed %d", st.Recovery().Replayed)
		}
	}
	if recovered != 3 {
		t.Fatalf("recovered %d/3 peers", recovered)
	}
	warmIndex, warmRows := query(mux2)
	if warmRows != coldRows {
		t.Fatalf("rows after restart = %d, want %d", warmRows, coldRows)
	}
	for i := range coldIndex {
		if warmIndex[i] != coldIndex[i] {
			t.Fatalf("peer index changed across restart:\n  cold %+v\n  warm %+v", coldIndex[i], warmIndex[i])
		}
	}

	// the durable series are scrapeable
	srv := httptest.NewServer(mux2)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, family := range []string{"wal_appends_total", "wal_durable_epoch", "checkpoint_last_version"} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s with -data-dir set", family)
		}
	}
}
