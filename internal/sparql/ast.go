package sparql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pattern"
	"repro/internal/rdf"
)

// Form distinguishes the query forms supported by the fragment.
type Form int

const (
	// FormSelect is a SELECT query returning variable bindings.
	FormSelect Form = iota
	// FormAsk is a boolean ASK query.
	FormAsk
)

// Cond is a simple FILTER condition comparing two operands for (in)equality.
type Cond struct {
	Left  pattern.Elem
	Right pattern.Elem
	Neq   bool
}

// Holds reports whether the condition is satisfied under µ. Unbound
// variables make the condition false (an error in full SPARQL; the fragment
// treats it as non-satisfaction).
func (c Cond) Holds(mu pattern.Binding) bool {
	l, ok := resolveElem(c.Left, mu)
	if !ok {
		return false
	}
	r, ok := resolveElem(c.Right, mu)
	if !ok {
		return false
	}
	if c.Neq {
		return l != r
	}
	return l == r
}

func resolveElem(e pattern.Elem, mu pattern.Binding) (rdf.Term, bool) {
	if !e.IsVar() {
		return e.Term(), true
	}
	t, ok := mu[e.Var()]
	return t, ok
}

func (c Cond) String() string {
	op := "="
	if c.Neq {
		op = "!="
	}
	return fmt.Sprintf("FILTER(%s %s %s)", c.Left, op, c.Right)
}

// Expr is a graph pattern expression: a Group, Union, Optional, or Values.
type Expr interface {
	// Vars returns all variables mentioned, sorted.
	Vars() []string
	exprNode()
}

// Group is a group graph pattern: a basic graph pattern joined with nested
// sub-expressions, with optional filters applied to the group's solutions.
type Group struct {
	BGP      pattern.GraphPattern
	Children []Expr
	Filters  []Cond
}

func (g *Group) exprNode() {}

// Vars implements Expr.
func (g *Group) Vars() []string {
	set := make(map[string]struct{})
	for _, v := range g.BGP.Vars() {
		set[v] = struct{}{}
	}
	for _, c := range g.Children {
		for _, v := range c.Vars() {
			set[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Optional marks a left-joined (OPTIONAL) sub-pattern: solutions of the
// enclosing group are kept even when the inner pattern does not match;
// when it matches compatibly, its bindings are added.
type Optional struct {
	Inner Expr
}

func (o *Optional) exprNode() {}

// Vars implements Expr.
func (o *Optional) Vars() []string { return o.Inner.Vars() }

// Values is an inline-bindings block (SPARQL 1.1 VALUES): a literal
// relation over the declared variables, joined into the enclosing group.
// The federation mediator ships probe batches as one pattern plus
// one Values block, so the peer evaluates the pattern once and probes the
// binding set instead of re-evaluating a filtered copy per binding.
type Values struct {
	// Names is the declared variable list, in declaration order.
	Names []string
	// Rows holds one tuple per binding, aligned with Names; a zero Term is
	// UNDEF (the variable stays unbound in that row).
	Rows []pattern.Tuple
}

func (v *Values) exprNode() {}

// Vars implements Expr.
func (v *Values) Vars() []string {
	out := append([]string(nil), v.Names...)
	sort.Strings(out)
	return out
}

// Bindings materialises the rows as solution mappings (UNDEF slots are
// simply absent).
func (v *Values) Bindings() []pattern.Binding {
	out := make([]pattern.Binding, len(v.Rows))
	for i, row := range v.Rows {
		mu := make(pattern.Binding, len(v.Names))
		for j, name := range v.Names {
			if j < len(row) && !row[j].IsZero() {
				mu[name] = row[j]
			}
		}
		out[i] = mu
	}
	return out
}

// Union is a disjunction of group graph patterns.
type Union struct {
	Alternatives []Expr
}

func (u *Union) exprNode() {}

// Vars implements Expr.
func (u *Union) Vars() []string {
	set := make(map[string]struct{})
	for _, a := range u.Alternatives {
		for _, v := range a.Vars() {
			set[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Query is a parsed SPARQL query in the supported fragment.
type Query struct {
	Form     Form
	Distinct bool
	// Star is true for SELECT *; Vars then lists nothing.
	Star bool
	// Vars is the projection list for SELECT queries.
	Vars []string
	// Where is the query pattern.
	Where Expr
	// Limit caps the number of solutions returned when > 0 (SELECT only).
	// Remote evaluation stops producing once the cap is reached — over the
	// streaming wire protocol the peer observes the closed stream and
	// abandons the rest of the scan.
	Limit int
	// Ns carries the prologue's prefix bindings (plus any preloaded ones),
	// used when serialising the query back to text.
	Ns *rdf.Namespaces
}

// ProjectedVars returns the effective projection: Vars, or all pattern
// variables for SELECT *.
func (q *Query) ProjectedVars() []string {
	if q.Star {
		return q.Where.Vars()
	}
	return q.Vars
}

// IsConjunctive reports whether the query falls in the paper's graph pattern
// query language: a single group with no unions, optionals, children, or
// filters.
func (q *Query) IsConjunctive() bool {
	g, ok := q.Where.(*Group)
	return ok && len(g.Children) == 0 && len(g.Filters) == 0
}

// ToPatternQuery converts a conjunctive query to its formal graph-pattern
// query q(x) ← GP. It fails if the query uses UNION or FILTER.
func (q *Query) ToPatternQuery() (pattern.Query, error) {
	g, ok := q.Where.(*Group)
	if !ok || !q.IsConjunctive() {
		return pattern.Query{}, fmt.Errorf("sparql: query is not in the conjunctive fragment")
	}
	return pattern.NewQuery(q.ProjectedVars(), g.BGP)
}

// FromPatternQuery renders a formal graph-pattern query as a SELECT (or ASK,
// if boolean) query.
func FromPatternQuery(pq pattern.Query, ns *rdf.Namespaces) *Query {
	form := FormSelect
	if pq.IsBoolean() {
		form = FormAsk
	}
	return &Query{
		Form: form,
		Vars: append([]string(nil), pq.Free...),
		Where: &Group{
			BGP: append(pattern.GraphPattern(nil), pq.GP...),
		},
		Ns: ns,
	}
}

// FromUCQ renders a union of conjunctive queries (all of the same arity and
// free-variable list) as a single SPARQL query whose WHERE clause is a
// UNION of the bodies — the form of the first-order rewritings of Section 4.
// A single disjunct collapses to a plain conjunctive query.
func FromUCQ(qs []pattern.Query, ns *rdf.Namespaces) (*Query, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("sparql: empty union")
	}
	if len(qs) == 1 {
		return FromPatternQuery(qs[0], ns), nil
	}
	arity := qs[0].Arity()
	alts := make([]Expr, len(qs))
	for i, q := range qs {
		if q.Arity() != arity {
			return nil, fmt.Errorf("sparql: union disjuncts have different arities (%d vs %d)", q.Arity(), arity)
		}
		alts[i] = &Group{BGP: append(pattern.GraphPattern(nil), q.GP...)}
	}
	form := FormSelect
	if arity == 0 {
		form = FormAsk
	}
	return &Query{
		Form:  form,
		Vars:  append([]string(nil), qs[0].Free...),
		Where: &Union{Alternatives: alts},
		Ns:    ns,
	}, nil
}

// String serialises the query back to SPARQL concrete syntax.
func (q *Query) String() string {
	var b strings.Builder
	ns := q.Ns
	if ns == nil {
		ns = rdf.NewNamespaces()
	}
	switch q.Form {
	case FormAsk:
		b.WriteString("ASK ")
	default:
		b.WriteString("SELECT ")
		if q.Distinct {
			b.WriteString("DISTINCT ")
		}
		if q.Star {
			b.WriteString("* ")
		} else {
			for _, v := range q.Vars {
				b.WriteString("?" + v + " ")
			}
		}
		b.WriteString("WHERE ")
	}
	writeExpr(&b, q.Where, ns, 0)
	if q.Form == FormSelect && q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

func writeExpr(b *strings.Builder, e Expr, ns *rdf.Namespaces, depth int) {
	switch x := e.(type) {
	case *Group:
		b.WriteString("{ ")
		first := true
		for _, tp := range x.BGP {
			if !first {
				b.WriteString(" . ")
			}
			first = false
			writeTriplePattern(b, tp, ns)
		}
		for _, c := range x.Children {
			if !first {
				b.WriteString(" . ")
			}
			first = false
			writeExpr(b, c, ns, depth+1)
		}
		for _, f := range x.Filters {
			b.WriteString(" ")
			b.WriteString(renderCond(f, ns))
		}
		b.WriteString(" }")
	case *Union:
		b.WriteString("{ ")
		for i, a := range x.Alternatives {
			if i > 0 {
				b.WriteString(" UNION ")
			}
			writeExpr(b, a, ns, depth+1)
		}
		b.WriteString(" }")
	case *Optional:
		b.WriteString("OPTIONAL ")
		writeExpr(b, x.Inner, ns, depth+1)
	case *Values:
		b.WriteString("VALUES (")
		for i, name := range x.Names {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString("?" + name)
		}
		b.WriteString(") { ")
		for _, row := range x.Rows {
			b.WriteString("(")
			for j := range x.Names {
				if j > 0 {
					b.WriteString(" ")
				}
				if j >= len(row) || row[j].IsZero() {
					b.WriteString("UNDEF")
				} else {
					b.WriteString(renderElem(pattern.C(row[j]), ns))
				}
			}
			b.WriteString(") ")
		}
		b.WriteString("}")
	}
}

func writeTriplePattern(b *strings.Builder, tp pattern.TriplePattern, ns *rdf.Namespaces) {
	b.WriteString(renderElem(tp.S, ns))
	b.WriteString(" ")
	b.WriteString(renderElem(tp.P, ns))
	b.WriteString(" ")
	b.WriteString(renderElem(tp.O, ns))
}

func renderElem(e pattern.Elem, ns *rdf.Namespaces) string {
	if e.IsVar() {
		return "?" + e.Var()
	}
	t := e.Term()
	if t.IsIRI() {
		short := ns.Shorten(t.Value())
		if short != t.Value() {
			return short
		}
	}
	return t.String()
}

func renderCond(c Cond, ns *rdf.Namespaces) string {
	op := "="
	if c.Neq {
		op = "!="
	}
	return "FILTER(" + renderElem(c.Left, ns) + " " + op + " " + renderElem(c.Right, ns) + ")"
}
