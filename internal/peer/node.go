package peer

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/simnet"
	"repro/internal/sparql"
)

// MsgSPARQL is the message type of a SPARQL query request; the payload is
// the query text and the response payload a SPARQL JSON results document.
const MsgSPARQL = "sparql"

// Node serves one peer's stored database on a simulated network address.
type Node struct {
	name string
	addr string
	peer *core.Peer
	net  *simnet.Network

	mu        sync.RWMutex
	queries   int
	streams   map[string]*serverStream
	streamQ   []string // stream ids, oldest first, for capacity eviction
	streamSeq int

	rowsProduced atomic.Int64
}

// NewNode registers a service for p at addr on the network.
func NewNode(p *core.Peer, net *simnet.Network, addr string) *Node {
	n := &Node{name: p.Name(), addr: addr, peer: p, net: net}
	net.Register(addr, n.handle)
	return n
}

// Name returns the peer name.
func (n *Node) Name() string { return n.name }

// Addr returns the network address.
func (n *Node) Addr() string { return n.addr }

// Peer returns the underlying peer.
func (n *Node) Peer() *core.Peer { return n.peer }

// QueriesServed reports how many queries the node has answered.
func (n *Node) QueriesServed() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.queries
}

func (n *Node) handle(from string, req simnet.Message) (simnet.Message, error) {
	switch req.Type {
	case MsgSPARQL:
		res, err := n.Answer(string(req.Payload))
		if err != nil {
			return simnet.Message{}, fmt.Errorf("peer %s: %w", n.name, err)
		}
		payload, err := EncodeResult(res)
		if err != nil {
			return simnet.Message{}, err
		}
		return simnet.Message{Type: MsgSPARQL, Payload: payload}, nil
	case MsgSPARQLBatch:
		queries, err := DecodeBatchRequest(req.Payload)
		if err != nil {
			return simnet.Message{}, fmt.Errorf("peer %s: %w", n.name, err)
		}
		rs, err := n.AnswerBatch(queries)
		if err != nil {
			return simnet.Message{}, fmt.Errorf("peer %s: %w", n.name, err)
		}
		payload, err := EncodeBatchResults(rs)
		if err != nil {
			return simnet.Message{}, err
		}
		return simnet.Message{Type: MsgSPARQLBatch, Payload: payload}, nil
	case MsgSPARQLStreamOpen:
		return n.handleStreamOpen(string(req.Payload))
	case MsgSPARQLStreamNext:
		return n.handleStreamNext(string(req.Payload))
	case MsgSPARQLStreamClose:
		n.dropStream(string(req.Payload))
		return simnet.Message{Type: MsgSPARQLStreamClose}, nil
	default:
		return simnet.Message{}, fmt.Errorf("peer %s: unsupported message type %q", n.name, req.Type)
	}
}

// Answer evaluates a SPARQL query text over the node's local database.
func (n *Node) Answer(queryText string) (*sparql.Result, error) {
	q, err := sparql.Parse(queryText, nil)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.queries++
	n.mu.Unlock()
	res := q.Eval(n.peer.Data())
	// count one-shot rows as produced too, so stream-vs-one-shot cost
	// comparisons read off the same counter
	n.rowsProduced.Add(int64(res.Len()))
	return res, nil
}

// AnswerBatch evaluates several query texts, one result per query. Each
// counts as one served query; a parse or evaluation failure anywhere fails
// the whole batch (the batch is one protocol operation).
func (n *Node) AnswerBatch(queries []string) ([]*sparql.Result, error) {
	out := make([]*sparql.Result, len(queries))
	for i, text := range queries {
		r, err := n.Answer(text)
		if err != nil {
			return nil, fmt.Errorf("batch query %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// Client issues SPARQL queries to nodes over the network.
type Client struct {
	net  *simnet.Network
	from string
}

// NewClient returns a client that calls from the given source address.
func NewClient(net *simnet.Network, from string) *Client {
	return &Client{net: net, from: from}
}

// Query sends the query text to addr and decodes the result.
func (c *Client) Query(addr, queryText string) (*sparql.Result, error) {
	resp, err := c.net.Call(c.from, addr, simnet.Message{Type: MsgSPARQL, Payload: []byte(queryText)})
	if err != nil {
		return nil, err
	}
	return DecodeResult(resp.Payload)
}

// QueryContext is Query under a request context. The simulated network has
// no in-flight cancellation, so the check happens before the call: a
// context that is already done short-circuits without sending the message.
func (c *Client) QueryContext(ctx context.Context, addr, queryText string) (*sparql.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.Query(addr, queryText)
}

// QueryBatch ships several query texts to addr in one network message and
// decodes the per-query results (aligned by index). Like QueryContext, it
// checks ctx before the call.
func (c *Client) QueryBatch(ctx context.Context, addr string, queries []string) ([]*sparql.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	payload, err := EncodeBatchRequest(queries)
	if err != nil {
		return nil, err
	}
	resp, err := c.net.Call(c.from, addr, simnet.Message{Type: MsgSPARQLBatch, Payload: payload})
	if err != nil {
		return nil, err
	}
	rs, err := DecodeBatchResults(resp.Payload)
	if err != nil {
		return nil, err
	}
	if len(rs) != len(queries) {
		return nil, fmt.Errorf("peer: batch response has %d results for %d queries", len(rs), len(queries))
	}
	return rs, nil
}

// Entry describes one peer known to the registry.
type Entry struct {
	Name string
	Addr string
	// Replicas are additional addresses serving the same logical peer, in
	// preference order after Addr. The federation mediator treats
	// {Addr, Replicas...} as one replica set: any endpoint can answer any
	// sub-query for the peer, so failed or slow endpoints can be retried,
	// hedged, or failed over without losing answers.
	Replicas []string
	// Schema is the peer's schema, used for source selection: a triple
	// pattern can only match at peers whose schema contains all of the
	// pattern's IRIs.
	Schema *core.Schema
}

// Endpoints returns the entry's full replica set: Addr first, then the
// replicas, in failover preference order.
func (e Entry) Endpoints() []string {
	out := make([]string, 0, 1+len(e.Replicas))
	out = append(out, e.Addr)
	return append(out, e.Replicas...)
}

// Registry is the super-peer routing table: it knows every peer's address
// and schema. (The paper's related work discusses super-peer routing for
// RDF P2P networks; the registry plays that role for the prototype.)
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]Entry)}
}

// Add registers a peer.
func (r *Registry) Add(e Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[e.Name] = e
}

// AddNode registers a served node.
func (r *Registry) AddNode(n *Node) {
	r.Add(Entry{Name: n.Name(), Addr: n.Addr(), Schema: n.Peer().Schema()})
}

// Lookup returns the entry for a peer name.
func (r *Registry) Lookup(name string) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Entries returns all entries sorted by name.
func (r *Registry) Entries() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SelectSources returns the peers whose schema contains every given IRI —
// the candidate sources for a triple pattern mentioning those IRIs. With no
// IRIs (an all-variable pattern), every peer is a candidate.
func (r *Registry) SelectSources(iris []rdf.Term) []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Entry
	for _, e := range r.entries {
		ok := true
		for _, t := range iris {
			if t.IsIRI() && !e.Schema.Has(t) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddReplica records an additional address for a registered peer. Unknown
// names are ignored.
func (r *Registry) AddReplica(name, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return
	}
	e.Replicas = append(append([]string(nil), e.Replicas...), addr)
	r.entries[name] = e
}

// Deploy registers a node for every peer of the system on the network with
// addresses "peer:<name>", populates the registry, and returns the nodes.
func Deploy(sys *core.System, net *simnet.Network, reg *Registry) []*Node {
	return DeployReplicated(sys, net, reg, 1)
}

// DeployReplicated is Deploy with a replica set per peer: each peer is
// served by `replicas` interchangeable nodes — the primary at
// "peer:<name>" plus replicas at "peer:<name>@r1", "peer:<name>@r2", … —
// all registered under one registry entry, so the mediator can fail over
// or hedge between them. replicas < 1 is treated as 1.
func DeployReplicated(sys *core.System, net *simnet.Network, reg *Registry, replicas int) []*Node {
	var out []*Node
	for _, p := range sys.Peers() {
		n := NewNode(p, net, "peer:"+p.Name())
		reg.AddNode(n)
		out = append(out, n)
		for i := 1; i < replicas; i++ {
			rn := NewNode(p, net, fmt.Sprintf("peer:%s@r%d", p.Name(), i))
			reg.AddReplica(p.Name(), rn.Addr())
			out = append(out, rn)
		}
	}
	return out
}
