package federation_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
)

// A fetch over HTTP carries the query's context: an unanchored 2-pattern
// body routed to one peer fetches both extensions up front, and canceling
// the query while the peer sits on those requests returns AnswerCtx
// promptly and cancels the peer's request.
func TestFetchOverHTTPHonoursCancellation(t *testing.T) {
	sys := core.NewSystem()
	a := sys.AddPeer("a")
	p, qp := rdf.IRI("http://e/p"), rdf.IRI("http://e/q")
	for _, tr := range []rdf.Triple{
		{S: rdf.IRI("http://e/s"), P: p, O: rdf.IRI("http://e/m")},
		{S: rdf.IRI("http://e/m"), P: qp, O: rdf.IRI("http://e/o")},
	} {
		if err := a.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	q := pattern.MustQuery([]string{"x", "z"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(p), pattern.V("y")),
		pattern.TP(pattern.V("y"), pattern.C(qp), pattern.V("z")),
	})

	entered := make(chan struct{}, 1)
	canceled := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadAll(r.Body)
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
			select {
			case canceled <- struct{}{}:
			default:
			}
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release) // runs first: never leave the handler blocked

	reg := peer.NewRegistry()
	reg.Add(peer.Entry{Name: "a", Addr: srv.URL, Schema: a.Schema()})
	eng := federation.New(sys, reg, &peer.HTTPClient{}, federation.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := eng.AnswerCtx(ctx, q)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no query reached the peer")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("AnswerCtx did not return within 1s of cancellation")
	}
	select {
	case <-canceled:
	case <-time.After(time.Second):
		t.Fatal("the peer never observed the cancellation")
	}
}
