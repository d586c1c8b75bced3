package peer_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/simnet"
	"repro/internal/sparql"
)

// deployWidePeer builds a one-peer system holding facts rows of a single
// predicate — wide enough that a streamed SELECT spans several chunks — and
// deploys it on a fresh simnet with a "client" endpoint registered.
func deployWidePeer(t *testing.T, facts int) (*core.System, *simnet.Network, *peer.Node) {
	t.Helper()
	sys := core.NewSystem()
	p := sys.AddPeer("wide")
	for j := 0; j < facts; j++ {
		if err := p.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", j)),
			P: rdf.IRI("http://e/P0"),
			O: rdf.IRI(fmt.Sprintf("http://e/o%d", j)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	net := simnet.New()
	nodes := peer.Deploy(sys, net, peer.NewRegistry())
	net.Register("client", func(string, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	return sys, net, nodes[0]
}

func drainStream(t *testing.T, rs *peer.ResultStream) []pattern.Tuple {
	t.Helper()
	var rows []pattern.Tuple
	for {
		row, ok, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	rs.Close()
	return rows
}

const wideQuery = `SELECT ?x ?y WHERE { ?x <http://e/P0> ?y . }`

// A multi-chunk stream over simnet, pulled row by row, must deliver exactly
// the rows of Client.Query (the same stream read to the end): same
// projection, every row once, trailer carrying the peer-side cost.
func TestSimnetStreamRoundTrip(t *testing.T) {
	const facts = 300 // > 2 chunks of StreamChunk=128
	_, net, _ := deployWidePeer(t, facts)
	c := peer.NewClient(net, "client")

	oneShot, err := c.Query("peer:wide", wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.QueryStream(context.Background(), "peer:wide", wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Vars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("stream vars = %v", got)
	}
	rows := drainStream(t, rs)
	if len(rows) != facts {
		t.Fatalf("streamed %d rows, want %d", len(rows), facts)
	}
	want := oneShot.TupleSet()
	got := pattern.NewTupleSet()
	for _, row := range rows {
		if !got.Add(row) {
			t.Errorf("duplicate streamed row %v", row)
		}
	}
	if !got.Equal(want) {
		t.Error("streamed row set differs from the one-shot result")
	}
	if rs.Produced() != facts {
		t.Errorf("trailer produced = %d, want %d", rs.Produced(), facts)
	}
}

// ASK streams answer on the open reply: the verdict is valid immediately,
// no rows follow, and the peer stops at the first matching row.
func TestSimnetStreamAsk(t *testing.T) {
	_, net, node := deployWidePeer(t, 300)
	c := peer.NewClient(net, "client")

	rs, err := c.QueryStream(context.Background(), "peer:wide", `ASK { ?x <http://e/P0> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Ask() || !rs.True() {
		t.Errorf("ask=%v true=%v, want both", rs.Ask(), rs.True())
	}
	if rows := drainStream(t, rs); len(rows) != 0 {
		t.Errorf("ASK stream carried %d rows", len(rows))
	}
	if got := node.RowsProduced(); got != 1 {
		t.Errorf("true ASK produced %d rows at the peer, want 1 (first row wins)", got)
	}

	rs, err = c.QueryStream(context.Background(), "peer:wide", `ASK { ?x <http://e/NOPE> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Ask() || rs.True() {
		t.Errorf("empty-pattern ASK: ask=%v true=%v", rs.Ask(), rs.True())
	}
	rs.Close()
}

// Closing a stream before exhaustion tells the peer to stop producing: the
// node's produced-rows counter stays at the chunks actually shipped, and
// the server-side stream is dropped (a further pull on its id is unknown).
func TestSimnetStreamEarlyCloseStopsProducing(t *testing.T) {
	const facts = 2000
	_, net, node := deployWidePeer(t, facts)
	c := peer.NewClient(net, "client")

	rs, err := c.QueryStream(context.Background(), "peer:wide", wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rs.Next(); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	rs.Close()
	if got := node.RowsProduced(); got > 2*peer.StreamChunk {
		t.Errorf("early close: peer produced %d rows, want at most the open chunk(s) (%d)", got, 2*peer.StreamChunk)
	}

	// the close dropped the server stream: a pull against any id errors
	if _, err := net.Call("client", "peer:wide", simnet.Message{Type: peer.MsgSPARQLStreamNext, Payload: []byte("s1")}); err == nil {
		t.Error("pull after close should report an unknown stream")
	}

	// reading the whole result (Client.Query: the same stream read to the
	// end) pays the full extension for the same first row
	before := node.RowsProduced()
	if _, err := c.Query("peer:wide", wideQuery); err != nil {
		t.Fatal(err)
	}
	if got := node.RowsProduced() - before; got != facts {
		t.Errorf("one-shot produced %d rows, want %d", got, facts)
	}
}

// A server-side stream whose client vanished (no Close ever arrives) is
// reaped after StreamIdleTimeout and its scan released.
func TestSimnetStreamIdleReaper(t *testing.T) {
	old := peer.StreamIdleTimeout
	peer.StreamIdleTimeout = 25 * time.Millisecond
	defer func() { peer.StreamIdleTimeout = old }()

	_, net, _ := deployWidePeer(t, 300)
	c := peer.NewClient(net, "client")
	rs, err := c.QueryStream(context.Background(), "peer:wide", wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	// consume the open chunk but never pull again — a vanished client
	for i := 0; i < peer.StreamChunk; i++ {
		if _, ok, err := rs.Next(); !ok || err != nil {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	time.Sleep(10 * peer.StreamIdleTimeout)
	if _, _, err := rs.Next(); err == nil || !strings.Contains(err.Error(), "unknown stream") {
		t.Errorf("pull after idle timeout: err=%v, want unknown stream", err)
	}
}

// The HTTP transport carries the same chunked protocol as NDJSON frames.
func TestHTTPStreamRoundTrip(t *testing.T) {
	const facts = 300
	sys, _, _ := deployWidePeer(t, facts)
	svc := peer.NewHTTPService(sys.Peer("wide"))
	srv := httptest.NewServer(svc)
	defer srv.Close()
	c := &peer.HTTPClient{}

	oneShot, err := c.Query(srv.URL, wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.QueryStream(context.Background(), srv.URL, wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, rs)
	if len(rows) != facts {
		t.Fatalf("streamed %d rows, want %d", len(rows), facts)
	}
	got := pattern.NewTupleSet()
	for _, row := range rows {
		got.Add(row)
	}
	if !got.Equal(oneShot.TupleSet()) {
		t.Error("HTTP streamed row set differs from the one-shot result")
	}
	if rs.Produced() != facts {
		t.Errorf("trailer produced = %d, want %d", rs.Produced(), facts)
	}

	// ASK over the same wire
	rs, err = c.QueryStream(context.Background(), srv.URL, `ASK { ?x <http://e/P0> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Ask() || !rs.True() {
		t.Errorf("HTTP ASK: ask=%v true=%v", rs.Ask(), rs.True())
	}
	rs.Close()
}

// An HTTP endpoint that ignores the Accept header and answers with the
// one-shot document (an old server) must still satisfy QueryStream: the
// client detects the content type and replays the document as a stream.
func TestHTTPStreamFallbackOldServer(t *testing.T) {
	sys, _, _ := deployWidePeer(t, 150)
	g := sys.Peer("wide").Data()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, r.ContentLength)
		_, _ = r.Body.Read(body)
		res := sparql.MustParse(string(body)).Eval(g)
		payload, err := peer.EncodeResult(res)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		_, _ = w.Write(payload)
	}))
	defer srv.Close()

	c := &peer.HTTPClient{}
	rs, err := c.QueryStream(context.Background(), srv.URL, wideQuery)
	if err != nil {
		t.Fatalf("fallback on one-shot content type failed: %v", err)
	}
	rows := drainStream(t, rs)
	if len(rows) != 150 {
		t.Errorf("fallback streamed %d rows, want 150", len(rows))
	}
}

// Closing the HTTP stream early closes the response body; the server's
// next write fails (or its request context cancels) and the scan stops
// short of the extension. The rows are padded wide so the response cannot
// hide in socket buffers — the server must feel the client stop reading.
func TestHTTPStreamEarlyClose(t *testing.T) {
	const facts = 5000
	pad := strings.Repeat("x", 8192)
	sys := core.NewSystem()
	p := sys.AddPeer("wide")
	for j := 0; j < facts; j++ {
		if err := p.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://e/s%d", j)),
			P: rdf.IRI("http://e/P0"),
			O: rdf.IRI(fmt.Sprintf("http://e/%s-%d", pad, j)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	svc := peer.NewHTTPService(sys.Peer("wide"))
	srv := httptest.NewServer(svc)
	defer srv.Close()

	c := &peer.HTTPClient{}
	rs, err := c.QueryStream(context.Background(), srv.URL, wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rs.Next(); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	rs.Close()
	// the handler may be a few flushed chunks ahead of the reader; wait for
	// the produced counter to go quiet, then require the scan stopped early
	last := svc.RowsProduced()
	for i := 0; i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
		got := svc.RowsProduced()
		if got == last {
			break
		}
		last = got
	}
	if last >= facts {
		t.Errorf("early close: server drained the whole extension (%d rows)", last)
	}
}
