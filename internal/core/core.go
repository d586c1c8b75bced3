// Package core implements RDF Peer Systems (RPS), the paper's primary
// contribution (Section 2): peers described by their schemas (the sets of
// IRIs they use), graph mapping assertions Q ⤳ Q′ between peers, and
// equivalence mappings c ≡ₑ c′ capturing owl:sameAs semantics. It defines
// the model-theoretic notions of stored databases, peer-to-peer databases
// and solutions (Definition 2), and the encoding of an RPS into a relational
// data exchange setting as sets of TGDs (Section 3).
//
// Query answering over an RPS (certain answers, Definition 3) is implemented
// by package chase; first-order rewriting by package rewrite.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/tgd"
)

// OWLSameAs is the IRI of the owl:sameAs property used to harvest
// equivalence mappings from stored data (Example 2).
const OWLSameAs = "http://www.w3.org/2002/07/owl#sameAs"

// Schema is a peer schema: the set of IRIs a peer uses to describe its data
// (Section 2.2). Schemas of different peers need not be disjoint.
type Schema struct {
	name string
	iris map[rdf.Term]struct{}
}

// NewSchema returns a schema with the given IRIs.
func NewSchema(name string, iris ...rdf.Term) *Schema {
	s := &Schema{name: name, iris: make(map[rdf.Term]struct{}, len(iris))}
	for _, t := range iris {
		s.Add(t)
	}
	return s
}

// Name returns the peer name the schema belongs to.
func (s *Schema) Name() string { return s.name }

// Add inserts an IRI into the schema; non-IRI terms are ignored.
func (s *Schema) Add(t rdf.Term) {
	if t.IsIRI() {
		s.iris[t] = struct{}{}
	}
}

// Has reports whether the IRI belongs to the schema.
func (s *Schema) Has(t rdf.Term) bool {
	_, ok := s.iris[t]
	return ok
}

// Len returns the number of IRIs in the schema.
func (s *Schema) Len() int { return len(s.iris) }

// Terms returns the schema's IRIs in sorted order.
func (s *Schema) Terms() []rdf.Term {
	out := make([]rdf.Term, 0, len(s.iris))
	for t := range s.iris {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Peer couples a schema with the peer's stored database d: a set of triples
// (s, p, o) ∈ (S ∪ B) × S × (S ∪ B ∪ L).
type Peer struct {
	schema *Schema
	data   *rdf.Graph
}

// NewPeer returns an empty peer with the given name.
func NewPeer(name string) *Peer {
	return &Peer{schema: NewSchema(name), data: rdf.NewGraph()}
}

// Name returns the peer name.
func (p *Peer) Name() string { return p.schema.name }

// Schema returns the peer schema.
func (p *Peer) Schema() *Schema { return p.schema }

// Data returns the peer's stored database. Callers must not mutate it
// directly; use Add or Load so the schema stays consistent.
func (p *Peer) Data() *rdf.Graph { return p.data }

// admit is the shared admission step of Add and Load: it rejects invalid
// RDF triples and extends the schema with the triple's IRIs as Section 2.2
// prescribes (the schema is the set of IRIs adopted by the peer). Only the
// data write differs between the two.
func (p *Peer) admit(t rdf.Triple) error {
	if !t.Valid() {
		return fmt.Errorf("core: invalid RDF triple %v", t)
	}
	for _, x := range t.Terms() {
		p.schema.Add(x)
	}
	return nil
}

// Add stores a triple, extending the schema with the triple's IRIs.
// Invalid RDF triples are rejected.
func (p *Peer) Add(t rdf.Triple) error {
	if err := p.admit(t); err != nil {
		return err
	}
	p.data.Add(t)
	return nil
}

// Load stores every triple of g into the peer. The triples land in the
// peer's store as one batch (one index rebuild and publication per shard,
// see rdf.Batch) rather than one write per triple; on an invalid triple
// the valid prefix is kept, exactly as per-triple loading behaved.
func (p *Peer) Load(g *rdf.Graph) error {
	var err error
	batch := p.data.NewBatch()
	g.ForEach(func(t rdf.Triple) bool {
		if err = p.admit(t); err != nil {
			return false
		}
		batch.Add(t)
		return true
	})
	batch.Commit()
	return err
}

// AdoptDataSchema extends the schema with every IRI mentioned by the
// stored data, exactly as loading the same triples through Add or Load
// would have. Recovery paths (internal/durable restoring a checkpoint and
// WAL directly into the peer's graph) bypass the admission step, so they
// call this once afterwards to re-derive the schema; Section 2.2's
// invariant — the schema is the set of IRIs the peer adopted — holds
// again when it returns.
func (p *Peer) AdoptDataSchema() {
	p.data.ForEach(func(t rdf.Triple) bool {
		for _, x := range t.Terms() {
			p.schema.Add(x)
		}
		return true
	})
}

// GraphMappingAssertion is an expression Q ⤳ Q′ between graph pattern
// queries of the same arity over the schemas of two peers (Section 2.2).
// The semantics (Definition 2, item 2) requires Q_I ⊆ Q′_I in every
// solution I.
type GraphMappingAssertion struct {
	// From and To are the source and target queries Q and Q′.
	From, To pattern.Query
	// SrcPeer and DstPeer name the peers whose schemas the queries use.
	SrcPeer, DstPeer string
	// Label optionally names the assertion for diagnostics.
	Label string
}

// String renders the assertion as "Q ~> Q'".
func (g GraphMappingAssertion) String() string {
	s := g.From.String() + "  ~>  " + g.To.String()
	if g.Label != "" {
		s = "[" + g.Label + "] " + s
	}
	return s
}

// EquivalenceMapping is c ≡ₑ c′ with c ∈ S and c′ ∈ S′ (Section 2.2).
type EquivalenceMapping struct {
	C, CPrime rdf.Term
}

// String renders the mapping as "c ≡ c'".
func (e EquivalenceMapping) String() string {
	return e.C.String() + " ≡ " + e.CPrime.String()
}

// System is an RPS P = (S, G, E).
type System struct {
	peers map[string]*Peer
	order []string
	// G is the set of graph mapping assertions.
	G []GraphMappingAssertion
	// E is the set of equivalence mappings.
	E []EquivalenceMapping

	equivSet map[EquivalenceMapping]struct{}
}

// NewSystem returns an empty RPS.
func NewSystem() *System {
	return &System{
		peers:    make(map[string]*Peer),
		equivSet: make(map[EquivalenceMapping]struct{}),
	}
}

// AddPeer creates (or returns the existing) peer with the given name.
func (s *System) AddPeer(name string) *Peer {
	if p, ok := s.peers[name]; ok {
		return p
	}
	p := NewPeer(name)
	s.peers[name] = p
	s.order = append(s.order, name)
	return p
}

// Peer returns the named peer, or nil.
func (s *System) Peer(name string) *Peer { return s.peers[name] }

// Peers returns all peers in insertion order.
func (s *System) Peers() []*Peer {
	out := make([]*Peer, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.peers[n])
	}
	return out
}

// PeerNames returns the peer names in insertion order.
func (s *System) PeerNames() []string { return append([]string(nil), s.order...) }

// AddMapping registers a graph mapping assertion Q ⤳ Q′ after validating
// that the two queries have the same arity and that their constants belong
// to the respective peer schemas (IRIs) or are literals.
func (s *System) AddMapping(m GraphMappingAssertion) error {
	if m.From.Arity() != m.To.Arity() {
		return fmt.Errorf("core: mapping %s: queries have different arities (%d vs %d)",
			m.Label, m.From.Arity(), m.To.Arity())
	}
	if err := s.checkVocabulary(m.SrcPeer, m.From); err != nil {
		return fmt.Errorf("core: mapping %s source query: %w", m.Label, err)
	}
	if err := s.checkVocabulary(m.DstPeer, m.To); err != nil {
		return fmt.Errorf("core: mapping %s target query: %w", m.Label, err)
	}
	s.G = append(s.G, m)
	return nil
}

func (s *System) checkVocabulary(peerName string, q pattern.Query) error {
	if peerName == "" {
		return nil // unvalidated mapping (peer not named)
	}
	p, ok := s.peers[peerName]
	if !ok {
		return fmt.Errorf("unknown peer %q", peerName)
	}
	for _, c := range q.GP.Constants() {
		if c.IsLiteral() {
			continue
		}
		if c.IsBlank() {
			return fmt.Errorf("blank node %v not allowed in mapping queries", c)
		}
		if !p.Schema().Has(c) {
			return fmt.Errorf("IRI %v is not in the schema of peer %q", c, peerName)
		}
	}
	return nil
}

// AddEquivalence registers c ≡ₑ c′. Both terms must be IRIs; duplicates and
// trivial self-equivalences are ignored.
func (s *System) AddEquivalence(c, cPrime rdf.Term) error {
	if !c.IsIRI() || !cPrime.IsIRI() {
		return fmt.Errorf("core: equivalence mappings relate IRIs, got %v ≡ %v", c, cPrime)
	}
	if c == cPrime {
		return nil
	}
	m := EquivalenceMapping{C: c, CPrime: cPrime}
	if _, dup := s.equivSet[m]; dup {
		return nil
	}
	// the symmetric pair is semantically identical; store only one
	if _, dup := s.equivSet[EquivalenceMapping{C: cPrime, CPrime: c}]; dup {
		return nil
	}
	s.equivSet[m] = struct{}{}
	s.E = append(s.E, m)
	return nil
}

// HarvestSameAs scans all stored databases for owl:sameAs triples and
// registers an equivalence mapping per triple, as in Example 2. It returns
// the number of new mappings.
func (s *System) HarvestSameAs() int {
	before := len(s.E)
	sameAs := rdf.IRI(OWLSameAs)
	for _, p := range s.Peers() {
		p.Data().Match(nil, &sameAs, nil, func(t rdf.Triple) bool {
			if t.S.IsIRI() && t.O.IsIRI() {
				_ = s.AddEquivalence(t.S, t.O)
			}
			return true
		})
	}
	return len(s.E) - before
}

// StoredDatabase returns the union of all peers' stored databases: the
// stored database D of the RPS.
func (s *System) StoredDatabase() *rdf.Graph {
	g := rdf.NewGraph()
	for _, p := range s.Peers() {
		g.Merge(p.Data())
	}
	return g
}

// Stats summarises the system's size.
type Stats struct {
	Peers        int
	Triples      int
	SchemaIRIs   int
	GMappings    int
	Equivalences int
}

// Stats returns size statistics for the system.
func (s *System) Stats() Stats {
	st := Stats{Peers: len(s.peers), GMappings: len(s.G), Equivalences: len(s.E)}
	for _, p := range s.Peers() {
		st.Triples += p.Data().Len()
		st.SchemaIRIs += p.Schema().Len()
	}
	return st
}

// Violation describes one way a candidate peer-to-peer database fails
// Definition 2.
type Violation struct {
	// Kind is "stored", "mapping" or "equivalence".
	Kind string
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// CheckSolution verifies Definition 2 for the candidate database I against
// the system's stored database and mappings, returning all violations
// (empty means I is a solution).
func (s *System) CheckSolution(I *rdf.Graph) []Violation {
	var out []Violation
	// item 1: every stored database is contained in I
	for _, p := range s.Peers() {
		missing := 0
		p.Data().ForEach(func(t rdf.Triple) bool {
			if !I.Has(t) {
				missing++
			}
			return true
		})
		if missing > 0 {
			out = append(out, Violation{Kind: "stored",
				Detail: fmt.Sprintf("peer %s: %d stored triples missing from I", p.Name(), missing)})
		}
	}
	// item 2: Q_I ⊆ Q′_I for each graph mapping assertion
	for _, m := range s.G {
		qi := plan.ExecuteQuery(I, m.From)
		qpi := plan.ExecuteQuery(I, m.To)
		if !qi.SubsetOf(qpi) {
			diff := qi.Minus(qpi)
			out = append(out, Violation{Kind: "mapping",
				Detail: fmt.Sprintf("%s: %d tuples of Q_I not in Q'_I (e.g. %v)", m.Label, len(diff), diff[0])})
		}
	}
	// item 3: subj/pred/obj star-semantics equality for equivalences
	for _, e := range s.E {
		for _, probe := range []struct {
			name string
			mk   func(rdf.Term) pattern.Query
		}{
			{"subjQ", pattern.SubjQ},
			{"predQ", pattern.PredQ},
			{"objQ", pattern.ObjQ},
		} {
			a := plan.ExecuteQueryStar(I, probe.mk(e.C))
			b := plan.ExecuteQueryStar(I, probe.mk(e.CPrime))
			if !a.Equal(b) {
				out = append(out, Violation{Kind: "equivalence",
					Detail: fmt.Sprintf("%s: %s(%s) != %s(%s)", e, probe.name, e.C, probe.name, e.CPrime)})
			}
		}
	}
	return out
}

// IsSolution reports whether I satisfies Definition 2.
func (s *System) IsSolution(I *rdf.Graph) bool { return len(s.CheckSolution(I)) == 0 }

// SourceToTargetTGDs returns the two copy dependencies of Section 3:
// ts(x,y,z) → tt(x,y,z) and rs(x) → rt(x).
func SourceToTargetTGDs() []tgd.TGD {
	return []tgd.TGD{
		{
			Body:  []tgd.Atom{tgd.NewAtom(tgd.PredTS, pattern.V("x"), pattern.V("y"), pattern.V("z"))},
			Head:  []tgd.Atom{tgd.TTAtom(pattern.V("x"), pattern.V("y"), pattern.V("z"))},
			Label: "st-copy-triples",
		},
		{
			Body:  []tgd.Atom{tgd.NewAtom(tgd.PredRS, pattern.V("x"))},
			Head:  []tgd.Atom{tgd.RTAtom(pattern.V("x"))},
			Label: "st-copy-resources",
		},
	}
}

// MappingTGD encodes one graph mapping assertion Q ⤳ Q′ as the target
// dependency of Section 3:
//
//	∀x ∃y Qbody(x,y) ∧ rt(x₁) ∧ … ∧ rt(xₙ) → ∃z Q′body(x,z)
//
// Body variables are prefixed "b_" and the head's existential variables
// "h_" so the two queries' variable namespaces cannot collide; the free
// variables of Q′ are identified with those of Q positionally.
func MappingTGD(m GraphMappingAssertion) tgd.TGD {
	bodyQ := m.From.Rename("b_")
	var body []tgd.Atom
	for _, tp := range bodyQ.GP {
		body = append(body, tgd.TTAtom(tp.S, tp.P, tp.O))
	}
	for _, f := range bodyQ.Free {
		body = append(body, tgd.RTAtom(pattern.V(f)))
	}

	// head: rename Q′ existentials, identify its free vars with Q's
	headFree := make(map[string]string, len(m.To.Free))
	for i, f := range m.To.Free {
		headFree[f] = bodyQ.Free[i]
	}
	ren := func(e pattern.Elem) pattern.Elem {
		if !e.IsVar() {
			return e
		}
		if mapped, ok := headFree[e.Var()]; ok {
			return pattern.V(mapped)
		}
		return pattern.V("h_" + e.Var())
	}
	var head []tgd.Atom
	for _, tp := range m.To.GP {
		head = append(head, tgd.TTAtom(ren(tp.S), ren(tp.P), ren(tp.O)))
	}
	label := m.Label
	if label == "" {
		label = "gma"
	}
	return tgd.TGD{Body: body, Head: head, Label: label}
}

// EquivalenceTGDs encodes c ≡ₑ c′ as the six copy dependencies of
// Section 3 (subject, predicate and object positions, both directions).
func EquivalenceTGDs(e EquivalenceMapping) []tgd.TGD {
	c, cp := pattern.C(e.C), pattern.C(e.CPrime)
	mk := func(body, head tgd.Atom, label string) tgd.TGD {
		return tgd.TGD{Body: []tgd.Atom{body}, Head: []tgd.Atom{head}, Label: label}
	}
	y, z := pattern.V("y"), pattern.V("z")
	return []tgd.TGD{
		mk(tgd.TTAtom(c, y, z), tgd.TTAtom(cp, y, z), "eq-subj-fw"),
		mk(tgd.TTAtom(cp, y, z), tgd.TTAtom(c, y, z), "eq-subj-bw"),
		mk(tgd.TTAtom(y, c, z), tgd.TTAtom(y, cp, z), "eq-pred-fw"),
		mk(tgd.TTAtom(y, cp, z), tgd.TTAtom(y, c, z), "eq-pred-bw"),
		mk(tgd.TTAtom(y, z, c), tgd.TTAtom(y, z, cp), "eq-obj-fw"),
		mk(tgd.TTAtom(y, z, cp), tgd.TTAtom(y, z, c), "eq-obj-bw"),
	}
}

// TargetTGDs returns the target dependencies of the data exchange setting
// encoding this system: one TGD per graph mapping assertion and six per
// equivalence mapping.
func (s *System) TargetTGDs() []tgd.TGD {
	var out []tgd.TGD
	for _, m := range s.G {
		out = append(out, MappingTGD(m))
	}
	for _, e := range s.E {
		out = append(out, EquivalenceTGDs(e)...)
	}
	return out
}

// GMappingTGDs returns only the TGDs of the graph mapping assertions —
// the set the paper calls G when analysing FO-rewritability.
func (s *System) GMappingTGDs() []tgd.TGD {
	out := make([]tgd.TGD, 0, len(s.G))
	for _, m := range s.G {
		out = append(out, MappingTGD(m))
	}
	return out
}

// EquivalenceClasses returns the connected components induced by E, each as
// a sorted slice of IRIs, sorted by their first element. Used for the
// redundancy-elimination mode of query answering (Listing 1's "result
// without redundancy") and by the canonical-representative chase ablation.
func (s *System) EquivalenceClasses() [][]rdf.Term {
	parent := make(map[rdf.Term]rdf.Term)
	var find func(rdf.Term) rdf.Term
	find = func(x rdf.Term) rdf.Term {
		p, ok := parent[x]
		if !ok || p == x {
			if !ok {
				parent[x] = x
			}
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b rdf.Term) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range s.E {
		union(e.C, e.CPrime)
	}
	groups := make(map[rdf.Term][]rdf.Term)
	for x := range parent {
		root := find(x)
		groups[root] = append(groups[root], x)
	}
	var out [][]rdf.Term
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i].Compare(members[j]) < 0 })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Compare(out[j][0]) < 0 })
	return out
}

// Describe renders a human-readable summary of the system.
func (s *System) Describe(ns *rdf.Namespaces) string {
	if ns == nil {
		ns = rdf.NewNamespaces()
	}
	var b strings.Builder
	st := s.Stats()
	fmt.Fprintf(&b, "RPS: %d peers, %d stored triples, %d graph mapping assertions, %d equivalence mappings\n",
		st.Peers, st.Triples, st.GMappings, st.Equivalences)
	for _, p := range s.Peers() {
		fmt.Fprintf(&b, "  peer %-12s %5d triples, %4d schema IRIs\n", p.Name(), p.Data().Len(), p.Schema().Len())
	}
	for _, m := range s.G {
		fmt.Fprintf(&b, "  G: %s\n", m)
	}
	for i, e := range s.E {
		if i >= 10 {
			fmt.Fprintf(&b, "  E: … (%d more)\n", len(s.E)-10)
			break
		}
		fmt.Fprintf(&b, "  E: %s ≡ %s\n", ns.ShortenTerm(e.C), ns.ShortenTerm(e.CPrime))
	}
	return b.String()
}
