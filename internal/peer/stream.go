package peer

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/pattern"
	"repro/internal/simnet"
	"repro/internal/sparql"
)

// The streaming result protocol.
//
// A streamed result is a sequence of frames: one header frame (the
// projection for SELECT, or the ASK verdict), zero or more row-chunk frames
// (up to StreamChunk rows each, aligned with the header's vars; null slots
// are unbound), and one trailer frame (done, the peer-side produced-rows
// count, and the evaluation error if any). Rows reach the consumer as the
// peer's scan produces them, and a consumer that stops early — an ASK probe
// satisfied by the first row, a LIMIT reached, a canceled or hedged-out
// federated sub-query — closes the stream and the peer abandons the rest of
// the scan instead of draining it.
//
// Over simnet the stream is the only wire, and it is pull-based:
// MsgSPARQLStreamOpen carries the query text and answers with the header
// plus the first chunk (and a stream id while more remain),
// MsgSPARQLStreamNext pulls one more chunk, and MsgSPARQLStreamClose tears
// the stream down early. A whole result (Client.Query) is the stream read
// to the end. Every chunk is one network call, so fault injection
// (FailAfter, flaky links) kills streams mid-flight exactly like real
// networks do, and per-payload byte accounting measures what actually
// crossed the wire.
//
// Over HTTP the encoding is negotiated per request: the client sends
// "Accept: StreamContentType", a streaming server answers with that content
// type and newline-delimited JSON frames (flushed per chunk), and closing
// the response body cancels the server's request context mid-scan. A
// server that ignores the Accept header answers with the one-shot document;
// the client detects the content type and reads it as a one-frame stream
// (OneShotStream), so either server generation serves a streaming client.

// StreamContentType is the content type of a chunked (NDJSON-framed) result
// stream over HTTP. Servers answer with it only when the client's Accept
// header asks for it; everyone else gets the one-shot document.
const StreamContentType = "application/x-sparql-stream+json"

// StreamChunk is the maximum number of rows per row-chunk frame.
const StreamChunk = 128

// Simnet message types of the streaming protocol.
const (
	// MsgSPARQLStreamOpen opens a stream; the payload is the query text.
	MsgSPARQLStreamOpen = "sparql-stream-open"
	// MsgSPARQLStreamNext pulls the next chunk; the payload is the stream id.
	MsgSPARQLStreamNext = "sparql-stream-next"
	// MsgSPARQLStreamClose tears a stream down early; the payload is the
	// stream id.
	MsgSPARQLStreamClose = "sparql-stream-close"
)

// streamFrame is one frame of a result stream: the header (Vars or
// Ask/True), a row chunk (Rows), or the trailer (Done, Produced, Error).
// Simnet replies fold the header and first chunk into one frame and carry
// the stream id; HTTP sends one frame per NDJSON line.
type streamFrame struct {
	ID       string        `json:"id,omitempty"`
	Head     bool          `json:"head,omitempty"`
	Vars     []string      `json:"vars,omitempty"`
	Ask      bool          `json:"ask,omitempty"`
	True     bool          `json:"true,omitempty"`
	Rows     [][]*jsonTerm `json:"rows,omitempty"`
	Done     bool          `json:"done,omitempty"`
	Produced int64         `json:"produced,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// encodeRows marshals tuples as sparse term arrays (null = unbound).
func encodeRows(rows []pattern.Tuple) ([][]*jsonTerm, error) {
	out := make([][]*jsonTerm, len(rows))
	for i, row := range rows {
		enc := make([]*jsonTerm, len(row))
		for j, t := range row {
			if t.IsZero() {
				continue
			}
			jt, err := encodeTerm(t)
			if err != nil {
				return nil, err
			}
			enc[j] = &jt
		}
		out[i] = enc
	}
	return out, nil
}

// decodeRows is the inverse of encodeRows; arity pads short rows.
func decodeRows(rows [][]*jsonTerm, arity int) ([]pattern.Tuple, error) {
	out := make([]pattern.Tuple, len(rows))
	for i, enc := range rows {
		row := make(pattern.Tuple, arity)
		for j, jt := range enc {
			if jt == nil || j >= arity {
				continue
			}
			t, err := decodeTerm(*jt)
			if err != nil {
				return nil, err
			}
			row[j] = t
		}
		out[i] = row
	}
	return out, nil
}

// ResultStream is the client side of a streamed result: a pull iterator
// over the rows, with the header decoded up front. Errors from Next are
// classified like any peer-call error (Retryable) — a stream that dies
// mid-flight surfaces a transient error and the federation layer restarts
// the fetch from scratch.
type ResultStream struct {
	vars    []string
	ask     bool
	askTrue bool

	buf      []pattern.Tuple
	i        int
	finished bool // trailer seen: no more chunks
	closed   bool
	err      error
	produced int64
	// pull fetches the next chunk from the transport.
	pull func() (*streamFrame, error)
	// closefn releases the transport (best-effort early close).
	closefn func()
}

// Vars returns the projection of a SELECT stream, in order.
func (s *ResultStream) Vars() []string { return s.vars }

// Ask reports whether the stream is an ASK result.
func (s *ResultStream) Ask() bool { return s.ask }

// True is the ASK verdict (ASK streams carry no rows).
func (s *ResultStream) True() bool { return s.askTrue }

// Produced is the peer-side produced-rows count from the trailer frame
// (0 until the trailer arrives).
func (s *ResultStream) Produced() int64 { return s.produced }

// Next returns the next row. ok is false when the stream is exhausted or
// closed; err is non-nil when the transport failed or the peer reported an
// evaluation error (the stream is dead either way).
func (s *ResultStream) Next() (pattern.Tuple, bool, error) {
	for {
		if s.err != nil {
			return nil, false, s.err
		}
		if s.i < len(s.buf) {
			row := s.buf[s.i]
			s.i++
			return row, true, nil
		}
		if s.finished || s.closed || s.pull == nil {
			return nil, false, nil
		}
		fr, err := s.pull()
		if err != nil {
			s.err = err
			return nil, false, err
		}
		if err := s.ingest(fr); err != nil {
			s.err = err
			return nil, false, err
		}
	}
}

// ingest folds one frame into the buffer/trailer state.
func (s *ResultStream) ingest(fr *streamFrame) error {
	rows, err := decodeRows(fr.Rows, len(s.vars))
	if err != nil {
		return err
	}
	s.buf, s.i = rows, 0
	if fr.Done {
		s.finished = true
		s.produced = fr.Produced
		if fr.True {
			s.askTrue = true
		}
		if fr.Error != "" {
			return fmt.Errorf("peer: remote evaluation: %s", fr.Error)
		}
	}
	return nil
}

// Close releases the stream. Closing before the trailer tells the peer to
// stop producing (early termination); closing a finished stream is a no-op.
func (s *ResultStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.closefn != nil && !s.finished {
		s.closefn()
	}
	s.closefn = nil
}

// Result drains the stream into a one-shot result document (rows sorted,
// as Eval returns them), closing it afterwards.
func (s *ResultStream) Result() (*sparql.Result, error) {
	defer s.Close()
	if s.ask {
		// drain the trailer for ASK streams whose verdict rides on it
		for {
			_, ok, err := s.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		return &sparql.Result{Form: sparql.FormAsk, True: s.askTrue}, nil
	}
	res := &sparql.Result{Form: sparql.FormSelect, Vars: s.vars}
	for {
		row, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Compare(res.Rows[j]) < 0 })
	return res, nil
}

// OneShotStream reads a materialised result as an already-finished
// ResultStream: the one-shot document as a one-frame stream, for a server
// that answered without the stream encoding or a client that can only
// answer whole.
func OneShotStream(res *sparql.Result) *ResultStream {
	s := &ResultStream{finished: true}
	if res.Form == sparql.FormAsk {
		s.ask, s.askTrue = true, res.True
		return s
	}
	s.vars = res.Vars
	s.buf = res.Rows
	s.produced = int64(len(res.Rows))
	return s
}

// ---------------------------------------------------------------- server

// serverStream is one open stream at a node.
type serverStream struct {
	id    string
	rs    *sparql.RowStream
	timer *time.Timer // idle reaper; stopped during a pull, re-armed after it
	busy  bool        // a pull is in flight: the reaper must leave rs alone
}

// maxServerStreams bounds how many streams a node keeps open for clients
// that vanished without closing (a died mediator cannot send
// MsgSPARQLStreamClose); the oldest stream is evicted and its scan
// released.
const maxServerStreams = 64

// StreamIdleTimeout is how long a server-side stream may sit between pulls
// before the node reaps it and releases its scan. It is the second line of
// defence after maxServerStreams: capacity eviction needs new opens to
// arrive, while the idle timer also reclaims streams on a node whose
// clients all vanished. Tests lower it to observe reaping promptly.
var StreamIdleTimeout = 30 * time.Second

// openStream registers a stream and evicts the oldest over the cap.
func (n *Node) openStream(rs *sparql.RowStream) *serverStream {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.streamSeq++
	st := &serverStream{id: fmt.Sprintf("s%d", n.streamSeq), rs: rs}
	st.timer = time.AfterFunc(StreamIdleTimeout, func() { n.reapStream(st) })
	if n.streams == nil {
		n.streams = make(map[string]*serverStream)
	}
	n.streams[st.id] = st
	n.streamQ = append(n.streamQ, st.id)
	for len(n.streamQ) > 0 && len(n.streams) > maxServerStreams {
		oldest := n.streamQ[0]
		n.streamQ = n.streamQ[1:]
		if old, ok := n.streams[oldest]; ok {
			old.timer.Stop()
			old.rs.Close()
			delete(n.streams, oldest)
		}
	}
	return st
}

// lookupStream finds an open stream for a pull and, when found, suspends
// its idle reaping until releaseStream: idleness is the time between
// pulls, and a reaper that fires during one would close the scan under
// the puller.
func (n *Node) lookupStream(id string) (*serverStream, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.streams[id]
	if ok {
		st.busy = true
		st.timer.Stop()
	}
	return st, ok
}

// releaseStream ends a pull that left the stream open: the puller has a
// full StreamIdleTimeout to come back.
func (n *Node) releaseStream(st *serverStream) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st.busy = false
	st.timer.Reset(StreamIdleTimeout)
}

// reapStream is the idle timer's drop. A timer that fired just as a pull
// arrived finds the stream busy and leaves it; releaseStream re-arms it.
func (n *Node) reapStream(st *serverStream) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !st.busy {
		n.dropStreamLocked(st.id)
	}
}

func (n *Node) dropStream(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropStreamLocked(id)
}

func (n *Node) dropStreamLocked(id string) {
	if st, ok := n.streams[id]; ok {
		st.timer.Stop()
		st.rs.Close()
		delete(n.streams, id)
	}
}

// pullChunk serialises up to StreamChunk rows from the stream, counting
// them as produced at this node.
func (n *Node) pullChunk(rs *sparql.RowStream) ([][]*jsonTerm, bool, error) {
	var rows []pattern.Tuple
	for len(rows) < StreamChunk {
		row, ok := rs.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	n.rowsProduced.Add(int64(len(rows)))
	enc, err := encodeRows(rows)
	if err != nil {
		return nil, false, err
	}
	return enc, len(rows) < StreamChunk, nil
}

// handleStreamOpen evaluates the query as a stream and answers with the
// header plus the first chunk; when more rows may follow, the reply carries
// a stream id for MsgSPARQLStreamNext.
func (n *Node) handleStreamOpen(queryText string) (simnet.Message, error) {
	q, err := sparql.Parse(queryText, nil)
	if err != nil {
		return simnet.Message{}, fmt.Errorf("peer %s: %w", n.name, err)
	}
	n.mu.Lock()
	n.queries++
	n.mu.Unlock()
	rs, err := q.EvalStream(context.Background(), n.peer.Data())
	if err != nil {
		return simnet.Message{}, fmt.Errorf("peer %s: %w", n.name, err)
	}
	fr := streamFrame{Head: true, Vars: rs.Vars}
	if rs.Form == sparql.FormAsk {
		fr.Ask = true
		fr.True = rs.True
		fr.Done = true
		if rs.True {
			n.rowsProduced.Add(1)
		}
		fr.Produced = rs.Produced()
		return encodeFrame(fr)
	}
	rows, done, err := n.pullChunk(rs)
	if err != nil {
		rs.Close()
		return simnet.Message{}, err
	}
	fr.Rows = rows
	if done {
		fr.Done = true
		fr.Produced = rs.Produced()
		rs.Close()
		return encodeFrame(fr)
	}
	st := n.openStream(rs)
	fr.ID = st.id
	return encodeFrame(fr)
}

// handleStreamNext pulls one more chunk of an open stream.
func (n *Node) handleStreamNext(id string) (simnet.Message, error) {
	st, ok := n.lookupStream(id)
	if !ok {
		return simnet.Message{}, fmt.Errorf("peer %s: unknown stream %q", n.name, id)
	}
	rows, done, err := n.pullChunk(st.rs)
	if err != nil {
		n.dropStream(id)
		return simnet.Message{}, err
	}
	fr := streamFrame{Rows: rows}
	if done {
		fr.Done = true
		fr.Produced = st.rs.Produced()
		n.dropStream(id)
	} else {
		n.releaseStream(st)
	}
	return encodeFrame(fr)
}

func encodeFrame(fr streamFrame) (simnet.Message, error) {
	payload, err := json.Marshal(fr)
	if err != nil {
		return simnet.Message{}, err
	}
	return simnet.Message{Type: MsgSPARQLStreamNext, Payload: payload}, nil
}

// RowsProduced reports how many solution rows this node's evaluator has
// produced across every request. Early terminated streams stop adding to
// it: the observable proof that closing the stream stopped the scan.
func (n *Node) RowsProduced() int64 { return n.rowsProduced.Load() }

// ---------------------------------------------------------------- client

// QueryStream opens a streamed query against addr: the header decodes
// before the first row arrives, chunks are pulled on demand (one network
// call each), and Close before exhaustion tells the peer to stop
// producing. ctx gates every pull; canceling it abandons the stream
// mid-flight (the loser of a hedged race dies exactly this way).
func (c *Client) QueryStream(ctx context.Context, addr, queryText string) (*ResultStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.net.Call(c.from, addr, simnet.Message{Type: MsgSPARQLStreamOpen, Payload: []byte(queryText)})
	if err != nil {
		return nil, err
	}
	var fr streamFrame
	if err := json.Unmarshal(resp.Payload, &fr); err != nil {
		return nil, fmt.Errorf("peer: bad stream frame: %w", err)
	}
	s := &ResultStream{vars: fr.Vars, ask: fr.Ask, askTrue: fr.True}
	if err := s.ingest(&fr); err != nil {
		return nil, err
	}
	if s.finished {
		return s, nil
	}
	id := fr.ID
	s.pull = func() (*streamFrame, error) {
		if err := ctx.Err(); err != nil {
			// abandoned mid-flight: tell the peer to stop producing
			_, _ = c.net.Call(c.from, addr, simnet.Message{Type: MsgSPARQLStreamClose, Payload: []byte(id)})
			return nil, err
		}
		resp, err := c.net.Call(c.from, addr, simnet.Message{Type: MsgSPARQLStreamNext, Payload: []byte(id)})
		if err != nil {
			return nil, err
		}
		var next streamFrame
		if err := json.Unmarshal(resp.Payload, &next); err != nil {
			return nil, fmt.Errorf("peer: bad stream frame: %w", err)
		}
		return &next, nil
	}
	s.closefn = func() {
		_, _ = c.net.Call(c.from, addr, simnet.Message{Type: MsgSPARQLStreamClose, Payload: []byte(id)})
	}
	return s, nil
}
