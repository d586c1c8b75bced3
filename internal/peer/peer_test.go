package peer_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/simnet"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func TestEncodeDecodeResultSelect(t *testing.T) {
	res := &sparql.Result{
		Form: sparql.FormSelect,
		Vars: []string{"x", "y"},
		Rows: []pattern.Tuple{
			{rdf.IRI("http://e/a"), rdf.Literal("plain")},
			{rdf.Blank("b1"), rdf.LangLiteral("chat", "fr")},
			{rdf.Integer(7), rdf.Term{}}, // unbound second var
		},
	}
	data, err := peer.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := peer.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Vars, res.Vars) {
		t.Errorf("vars = %v", back.Vars)
	}
	if len(back.Rows) != 3 {
		t.Fatalf("rows = %v", back.Rows)
	}
	if back.Rows[0][0] != rdf.IRI("http://e/a") || back.Rows[0][1] != rdf.Literal("plain") {
		t.Errorf("row 0 = %v", back.Rows[0])
	}
	if back.Rows[1][0] != rdf.Blank("b1") || back.Rows[1][1] != rdf.LangLiteral("chat", "fr") {
		t.Errorf("row 1 = %v", back.Rows[1])
	}
	if back.Rows[2][0] != rdf.Integer(7) {
		t.Errorf("typed literal lost: %v", back.Rows[2][0])
	}
	if !back.Rows[2][1].IsZero() {
		t.Errorf("unbound var should stay zero, got %v", back.Rows[2][1])
	}
}

func TestEncodeDecodeResultAsk(t *testing.T) {
	for _, truth := range []bool{true, false} {
		res := &sparql.Result{Form: sparql.FormAsk, True: truth}
		data, err := peer.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		back, err := peer.DecodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Form != sparql.FormAsk || back.True != truth {
			t.Errorf("ask round trip = %+v", back)
		}
	}
}

func TestDecodeResultErrors(t *testing.T) {
	if _, err := peer.DecodeResult([]byte("{not json")); err == nil {
		t.Error("bad json should error")
	}
	if _, err := peer.DecodeResult([]byte(`{"head":{}}`)); err == nil {
		t.Error("missing results should error")
	}
	if _, err := peer.DecodeResult([]byte(`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"weird","value":"v"}}]}}`)); err == nil {
		t.Error("unknown term type should error")
	}
}

func deployFigure1(t *testing.T) (*core.System, *simnet.Network, *peer.Registry, []*peer.Node) {
	t.Helper()
	sys := workload.Figure1System()
	net := simnet.New()
	reg := peer.NewRegistry()
	nodes := peer.Deploy(sys, net, reg)
	return sys, net, reg, nodes
}

func TestNodeServesLocalQueries(t *testing.T) {
	_, net, _, nodes := deployFigure1(t)
	net.Register("client", func(string, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	c := peer.NewClient(net, "client")
	res, err := c.Query("peer:source3", `SELECT ?x ?y WHERE { ?x <http://example.org/age> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	// source1 has no age triples
	res, err = c.Query("peer:source1", `SELECT ?x ?y WHERE { ?x <http://example.org/age> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("source1 should have no ages: %v", res.Rows)
	}
	if nodes[2].QueriesServed() != 1 {
		t.Errorf("queries served = %d", nodes[2].QueriesServed())
	}
	if nodes[0].Name() != "source1" || nodes[0].Addr() != "peer:source1" {
		t.Errorf("node identity wrong: %s %s", nodes[0].Name(), nodes[0].Addr())
	}
}

func TestNodeRejectsBadMessages(t *testing.T) {
	_, net, _, _ := deployFigure1(t)
	net.Register("client", nil)
	if _, err := net.Call("client", "peer:source1", simnet.Message{Type: "bogus"}); err == nil {
		t.Error("bad message type should error")
	}
	if _, err := net.Call("client", "peer:source1", simnet.Message{Type: peer.MsgSPARQL, Payload: []byte("NOT A QUERY")}); err == nil {
		t.Error("bad query should error")
	}
}

func TestRegistryLookupAndEntries(t *testing.T) {
	_, _, reg, _ := deployFigure1(t)
	e, ok := reg.Lookup("source2")
	if !ok || e.Addr != "peer:source2" {
		t.Errorf("lookup = %+v %v", e, ok)
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Error("unknown peer should not resolve")
	}
	entries := reg.Entries()
	if len(entries) != 3 || entries[0].Name != "source1" {
		t.Errorf("entries = %v", entries)
	}
}

func TestRegistrySourceSelection(t *testing.T) {
	_, _, reg, _ := deployFigure1(t)
	// age is used by source3 only
	srcs := reg.SelectSources([]rdf.Term{workload.Age})
	if len(srcs) != 1 || srcs[0].Name != "source3" {
		t.Errorf("sources for age = %v", srcs)
	}
	// actor appears in source2 only
	srcs = reg.SelectSources([]rdf.Term{workload.Actor})
	if len(srcs) != 1 || srcs[0].Name != "source2" {
		t.Errorf("sources for actor = %v", srcs)
	}
	// no IRIs: all peers are candidates
	srcs = reg.SelectSources(nil)
	if len(srcs) != 3 {
		t.Errorf("all-variable pattern should touch all peers: %v", srcs)
	}
	// unknown IRI: nobody
	srcs = reg.SelectSources([]rdf.Term{rdf.IRI("http://nowhere/x")})
	if len(srcs) != 0 {
		t.Errorf("unknown IRI should select nothing: %v", srcs)
	}
}

func TestHTTPServiceAndClient(t *testing.T) {
	sys := workload.Figure1System()
	srv := httptest.NewServer(peer.NewHTTPService(sys.Peer("source3")))
	defer srv.Close()

	c := &peer.HTTPClient{}
	res, err := c.Query(srv.URL, `SELECT ?x ?y WHERE { ?x <http://example.org/age> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	// ASK over HTTP
	res, err = c.Query(srv.URL, `ASK { <http://xmlns.com/foaf/0.1/Willem_Dafoe> <http://example.org/age> "59" }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Form != sparql.FormAsk || !res.True {
		t.Errorf("ask = %+v", res)
	}
	// malformed query is a 400
	if _, err := c.Query(srv.URL, "garbage"); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("expected 400 error, got %v", err)
	}
}

func TestHTTPServiceGetForm(t *testing.T) {
	sys := workload.Figure1System()
	srv := httptest.NewServer(peer.NewHTTPService(sys.Peer("source3")))
	defer srv.Close()
	// GET with query parameter
	resp, err := srv.Client().Get(srv.URL + "?query=" + strings.ReplaceAll(
		`SELECT ?x WHERE { ?x <http://example.org/age> "59" }`, " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	// GET without query is a 400
	resp2, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Errorf("missing query status = %d", resp2.StatusCode)
	}
}

// One batched message answers several queries, aligned by index, over the
// simulated network — and each query counts as served.
func TestNodeBatchQueries(t *testing.T) {
	_, net, _, nodes := deployFigure1(t)
	net.Register("client", func(string, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	c := peer.NewClient(net, "client")
	before := net.Stats().Calls
	rs, err := c.QueryBatch(context.Background(), "peer:source3", []string{
		`SELECT ?x ?y WHERE { ?x <http://example.org/age> ?y }`,
		`ASK { <http://xmlns.com/foaf/0.1/Willem_Dafoe> <http://example.org/age> "59" }`,
		`SELECT ?x WHERE { ?x <http://example.org/age> "59" }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.Stats().Calls != before+1 {
		t.Errorf("batch took %d network calls, want 1", net.Stats().Calls-before)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d, want 3", len(rs))
	}
	if len(rs[0].Rows) != 3 {
		t.Errorf("query 0 rows = %v", rs[0].Rows)
	}
	if rs[1].Form != sparql.FormAsk || !rs[1].True {
		t.Errorf("query 1 = %+v", rs[1])
	}
	if len(rs[2].Rows) != 1 {
		t.Errorf("query 2 rows = %v", rs[2].Rows)
	}
	if nodes[2].QueriesServed() != 3 {
		t.Errorf("queries served = %d, want 3", nodes[2].QueriesServed())
	}
	// one bad query fails the whole batch
	if _, err := c.QueryBatch(context.Background(), "peer:source3", []string{"garbage"}); err == nil {
		t.Error("bad batch query should error")
	}
}

// The batch protocol also runs over HTTP (BatchContentType bodies).
func TestHTTPBatch(t *testing.T) {
	sys := workload.Figure1System()
	srv := httptest.NewServer(peer.NewHTTPService(sys.Peer("source3")))
	defer srv.Close()
	c := &peer.HTTPClient{}
	rs, err := c.QueryBatch(context.Background(), srv.URL, []string{
		`SELECT ?x ?y WHERE { ?x <http://example.org/age> ?y }`,
		`ASK { <http://xmlns.com/foaf/0.1/Willem_Dafoe> <http://example.org/age> "59" }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || len(rs[0].Rows) != 3 || !rs[1].True {
		t.Errorf("batch over HTTP = %+v", rs)
	}
	if _, err := c.QueryBatch(context.Background(), srv.URL, []string{"garbage"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("expected 400 error, got %v", err)
	}
}
