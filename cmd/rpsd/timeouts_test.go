package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/rdf"
)

// slowFlusher stretches a streamed response in time: every flushed frame
// is followed by a pause, as if the scan behind it were slow.
type slowFlusher struct {
	http.ResponseWriter
	pause time.Duration
}

func (w slowFlusher) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	time.Sleep(w.pause)
}

// rpsd's server refuses a client that trickles its request headers, yet a
// streamed /peer response that lasts longer than the read timeout still
// runs to completion: the read timeouts bound what the client sends, and
// nothing bounds what the server writes.
func TestServerTimeouts(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	sys := core.NewSystem()
	a := sys.AddPeer("a")
	pred := rdf.IRI("http://e/p")
	const rows = 4 * peer.StreamChunk
	for i := 0; i < rows; i++ {
		if err := a.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://e/s%d", i)), P: pred, O: rdf.IRI("http://e/o")}); err != nil {
			t.Fatal(err)
		}
	}
	svc := peer.NewHTTPService(a)
	mux := http.NewServeMux()
	mux.Handle("/peer/a", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		svc.ServeHTTP(slowFlusher{ResponseWriter: w, pause: readTimeout / 2}, r)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(mux, readTimeout, readTimeout, time.Minute)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()

	t.Run("tricklingHeadersClosed", func(t *testing.T) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		closed := make(chan error, 1)
		go func() {
			_, err := conn.Read(make([]byte, 1))
			closed <- err
		}()
		if _, err := io.WriteString(conn, "GET /peer/a HTTP/1.1\r\nHost: rpsd\r\n"); err != nil {
			t.Fatal(err)
		}
		tick := time.NewTicker(readTimeout / 4)
		defer tick.Stop()
		deadline := time.After(10 * readTimeout)
		for {
			select {
			case err := <-closed:
				if err == nil {
					t.Fatal("the server answered a request whose headers never finished")
				}
				return
			case <-tick.C:
				// one more header line, never the blank line that ends them
				_, _ = io.WriteString(conn, "X-Trickle: 1\r\n")
			case <-deadline:
				t.Fatalf("connection still open after %v of trickled headers", 10*readTimeout)
			}
		}
	})

	t.Run("longStreamCompletes", func(t *testing.T) {
		c := &peer.HTTPClient{}
		start := time.Now()
		rs, err := c.QueryStream(context.Background(), base+"/peer/a", "SELECT ?s WHERE { ?s <http://e/p> ?o }")
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		n := 0
		for {
			_, ok, err := rs.Next()
			if err != nil {
				t.Fatalf("stream failed after %d rows and %v: %v", n, time.Since(start), err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != rows {
			t.Fatalf("streamed %d rows, want %d", n, rows)
		}
		if d := time.Since(start); d <= readTimeout {
			t.Fatalf("stream took %v, not longer than the %v read timeout: the test proves nothing", d, readTimeout)
		}
	})
}
