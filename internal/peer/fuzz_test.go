package peer

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
)

// bodyTransport answers every request with one fixed body under a fixed
// content type, without a network.
type bodyTransport struct {
	contentType string
	body        []byte
}

func (b bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": {b.contentType}},
		Body:       io.NopCloser(bytes.NewReader(b.body)),
		Request:    r,
	}, nil
}

// FuzzPeerDecode drives the decoders that read a stranger's bytes — a
// peer's results document, and a peer's NDJSON result stream read through
// HTTPClient.QueryStream — with arbitrary input: they must never panic,
// and whatever decodes must be well formed (every row as wide as the
// projection). The seed corpus under testdata holds a SELECT and an ASK
// document, a head/chunk/trailer stream, and two JSON arrays (the request
// and response bodies of a retired batch message), which both decoders
// must reject.
func FuzzPeerDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if res, err := DecodeResult(data); err == nil {
			for _, row := range res.Rows {
				if len(row) != len(res.Vars) {
					t.Fatalf("decoded a %d-cell row under %d variables", len(row), len(res.Vars))
				}
			}
		}
		c := &HTTPClient{Client: &http.Client{Transport: bodyTransport{StreamContentType, data}}}
		rs, err := c.QueryStream(context.Background(), "http://peer.invalid/sparql", "ASK {}")
		if err != nil {
			return
		}
		defer rs.Close()
		for {
			row, ok, err := rs.Next()
			if err != nil || !ok {
				return
			}
			if len(row) != len(rs.Vars()) {
				t.Fatalf("streamed a %d-cell row under %d variables", len(row), len(rs.Vars()))
			}
		}
	})
}
