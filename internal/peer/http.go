package peer

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/sparql"
)

// maxQueryBody caps the request body a SPARQL endpoint accepts (1 MiB);
// larger bodies fail with 400 instead of being silently truncated.
const maxQueryBody = 1 << 20

// HTTPService exposes a peer's stored database as a SPARQL endpoint over
// HTTP: POST a query as application/sparql-query, or as the "query" form
// field / URL parameter; results are returned as SPARQL JSON
// (application/sparql-results+json). This is the "SPARQL access point" of
// the prototype architecture in Section 5.
type HTTPService struct {
	peer *core.Peer

	rowsProduced atomic.Int64
}

// NewHTTPService wraps a peer.
func NewHTTPService(p *core.Peer) *HTTPService { return &HTTPService{peer: p} }

// RowsProduced reports how many solution rows this service's evaluator has
// produced across every request, streamed and one-shot alike.
func (s *HTTPService) RowsProduced() int64 { return s.rowsProduced.Load() }

// ServeHTTP implements http.Handler. A POST with the batch content type
// (peer.BatchContentType) carries a JSON array of query texts and returns a
// JSON array of result documents — the HTTP form of the batched protocol.
// Evaluation runs under the request's context: if the caller disconnects or
// a server-side deadline fires, the query stops producing tuples and the
// handler answers 503.
func (s *HTTPService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.Header.Get("Content-Type"), BatchContentType) {
		s.serveBatch(w, r)
		return
	}
	queryText, err := extractQuery(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q, err := sparql.Parse(queryText, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), StreamContentType) {
		s.serveStream(w, r, q)
		return
	}
	res, err := q.EvalCtx(r.Context(), s.peer.Data())
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.rowsProduced.Add(int64(res.Len()))
	payload, err := EncodeResult(res)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/sparql-results+json")
	_, _ = w.Write(payload)
}

// serveStream answers with the chunked NDJSON frame protocol: a head frame,
// row-chunk frames flushed as the scan produces them, and a trailer frame.
// Evaluation runs under the request context, so a client that closes the
// response body mid-stream cancels the scan — early termination crosses the
// HTTP transport. (Old clients never reach here: they do not send the
// Accept header. Old servers ignore the header and answer one-shot; the
// client falls back on the content type.)
func (s *HTTPService) serveStream(w http.ResponseWriter, r *http.Request, q *sparql.Query) {
	rs, err := q.EvalStream(r.Context(), s.peer.Data())
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer rs.Close()
	w.Header().Set("Content-Type", StreamContentType)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(fr streamFrame) bool {
		if err := enc.Encode(fr); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if rs.Form == sparql.FormAsk {
		if rs.True {
			s.rowsProduced.Add(1)
		}
		emit(streamFrame{Head: true, Ask: true, True: rs.True, Done: true, Produced: rs.Produced()})
		return
	}
	if !emit(streamFrame{Head: true, Vars: rs.Vars}) {
		return
	}
	for {
		chunk := make([]pattern.Tuple, 0, StreamChunk)
		for len(chunk) < StreamChunk {
			row, ok := rs.Next()
			if !ok {
				break
			}
			chunk = append(chunk, row)
		}
		s.rowsProduced.Add(int64(len(chunk)))
		if len(chunk) > 0 {
			rows, err := encodeRows(chunk)
			if err != nil {
				emit(streamFrame{Done: true, Produced: rs.Produced(), Error: err.Error()})
				return
			}
			if !emit(streamFrame{Rows: rows}) {
				return
			}
		}
		if len(chunk) < StreamChunk {
			break
		}
	}
	if err := r.Context().Err(); err != nil {
		emit(streamFrame{Done: true, Produced: rs.Produced(), Error: err.Error()})
		return
	}
	emit(streamFrame{Done: true, Produced: rs.Produced()})
}

func (s *HTTPService) serveBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	queries, err := DecodeBatchRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rs := make([]*sparql.Result, len(queries))
	for i, text := range queries {
		q, err := sparql.Parse(text, nil)
		if err != nil {
			http.Error(w, fmt.Sprintf("batch query %d: %v", i, err), http.StatusBadRequest)
			return
		}
		rs[i], err = q.EvalCtx(r.Context(), s.peer.Data())
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	payload, err := EncodeBatchResults(rs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(payload)
}

func extractQuery(w http.ResponseWriter, r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query parameter")
		}
		return q, nil
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if strings.HasPrefix(ct, "application/sparql-query") {
			// read the whole body — a single Read call would truncate
			// chunked or large requests — but cap it so a hostile client
			// cannot exhaust memory
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
			if err != nil {
				return "", err
			}
			return string(body), nil
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
		if err := r.ParseForm(); err != nil {
			return "", err
		}
		q := r.PostForm.Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query form field")
		}
		return q, nil
	default:
		return "", fmt.Errorf("method %s not allowed", r.Method)
	}
}

// HTTPClient queries remote SPARQL endpoints over HTTP.
type HTTPClient struct {
	// Client is the underlying HTTP client; http.DefaultClient if nil.
	Client *http.Client
}

// Query POSTs the query to the endpoint URL and decodes the JSON results.
func (c *HTTPClient) Query(endpoint, queryText string) (*sparql.Result, error) {
	return c.QueryContext(context.Background(), endpoint, queryText)
}

// QueryContext is Query bound to a request context: the POST inherits the
// context's deadline and is abandoned if the caller cancels.
func (c *HTTPClient) QueryContext(ctx context.Context, endpoint, queryText string) (*sparql.Result, error) {
	body, err := c.post(ctx, endpoint, "application/sparql-query", queryText)
	if err != nil {
		return nil, err
	}
	return DecodeResult(body)
}

// QueryBatch POSTs several query texts in one request (peer.BatchContentType)
// and decodes the per-query results. The POST inherits ctx.
func (c *HTTPClient) QueryBatch(ctx context.Context, endpoint string, queries []string) ([]*sparql.Result, error) {
	payload, err := EncodeBatchRequest(queries)
	if err != nil {
		return nil, err
	}
	body, err := c.post(ctx, endpoint, BatchContentType, string(payload))
	if err != nil {
		return nil, err
	}
	rs, err := DecodeBatchResults(body)
	if err != nil {
		return nil, err
	}
	if len(rs) != len(queries) {
		return nil, fmt.Errorf("peer: batch response has %d results for %d queries", len(rs), len(queries))
	}
	return rs, nil
}

// QueryStream POSTs the query asking for the chunked stream encoding
// (Accept: StreamContentType) and returns a pull iterator over the rows.
// A server that predates the stream protocol ignores the Accept header and
// answers with the one-shot document; the client detects the content type
// and wraps the materialised result as an already-finished stream, so
// callers never need to know which generation the peer runs. Closing the
// stream early closes the response body, which cancels the server's
// request context and stops the remote scan.
func (c *HTTPClient) QueryStream(ctx context.Context, endpoint, queryText string) (*ResultStream, error) {
	hc := c.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, strings.NewReader(queryText))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	req.Header.Set("Accept", StreamContentType)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, &StatusError{Endpoint: endpoint, Code: resp.StatusCode, Status: resp.Status, Body: strings.TrimSpace(string(out))}
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), StreamContentType) {
		// one-shot fallback: the peer does not speak the stream protocol
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		res, err := DecodeResult(out)
		if err != nil {
			return nil, err
		}
		return oneShotStream(res), nil
	}
	dec := json.NewDecoder(resp.Body)
	var head streamFrame
	if err := dec.Decode(&head); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("peer: bad stream frame: %w", err)
	}
	s := &ResultStream{vars: head.Vars, ask: head.Ask, askTrue: head.True}
	if err := s.ingest(&head); err != nil {
		resp.Body.Close()
		return nil, err
	}
	if s.finished {
		resp.Body.Close()
		return s, nil
	}
	s.pull = func() (*streamFrame, error) {
		var fr streamFrame
		if err := dec.Decode(&fr); err != nil {
			resp.Body.Close()
			return nil, err // io.EOF / ErrUnexpectedEOF classify as transient
		}
		if fr.Done {
			resp.Body.Close()
		}
		return &fr, nil
	}
	s.closefn = func() { resp.Body.Close() }
	return s, nil
}

func (c *HTTPClient) post(ctx context.Context, endpoint, contentType, body string) ([]byte, error) {
	hc := c.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Endpoint: endpoint, Code: resp.StatusCode, Status: resp.Status, Body: strings.TrimSpace(string(out))}
	}
	return out, nil
}

// StatusError is a non-200 answer from a SPARQL endpoint, typed so callers
// can classify it: 5xx answers are transient (the endpoint is overloaded or
// mid-restart — retryable, see Retryable), 4xx answers are terminal (the
// query itself is rejected; retrying resends the same malformed query).
type StatusError struct {
	Endpoint string
	Code     int
	Status   string
	Body     string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("peer: endpoint %s: %s: %s", e.Endpoint, e.Status, e.Body)
}
