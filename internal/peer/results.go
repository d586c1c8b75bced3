// Package peer turns the data sources of an RDF Peer System into network
// services: each node serves its local RDF database through a small SPARQL
// protocol (over the simulated network of package simnet, or over real HTTP
// via Serve/Client), and a registry — the "super-peer" routing table of the
// P2P literature the paper cites — tracks peer addresses and schemas for
// source selection.
//
// Every client reads a result as a ResultStream (see stream.go): a header
// frame with the projection (or the ASK verdict), row-chunk frames of up to
// StreamChunk rows, and a trailer frame with the peer-side produced-rows
// count and any evaluation error — so the first rows reach the mediator
// while the scan is still running, and a consumer that stops early (ASK
// satisfied, LIMIT reached, hedged request lost the race) closes the
// stream and the peer abandons the rest of the scan. Simnet nodes speak
// only this stream. HTTP endpoints also serve the W3C SPARQL JSON results
// document — the one-shot encoding, every row in one response — to clients
// that do not ask for the stream in their Accept header; a streaming
// client that gets one reads it as a one-frame stream (OneShotStream).
package peer

import (
	"encoding/json"
	"fmt"

	"repro/internal/pattern"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// jsonTerm is the W3C SPARQL 1.1 JSON results encoding of one RDF term.
type jsonTerm struct {
	Type     string `json:"type"` // "uri" | "literal" | "bnode"
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

func encodeTerm(t rdf.Term) (jsonTerm, error) {
	switch t.Kind() {
	case rdf.KindIRI:
		return jsonTerm{Type: "uri", Value: t.Value()}, nil
	case rdf.KindBlank:
		return jsonTerm{Type: "bnode", Value: t.Value()}, nil
	case rdf.KindLiteral:
		jt := jsonTerm{Type: "literal", Value: t.Value()}
		if t.Lang() != "" {
			jt.Lang = t.Lang()
		} else if dt := t.Datatype(); dt != rdf.XSDString {
			jt.Datatype = dt
		}
		return jt, nil
	default:
		return jsonTerm{}, fmt.Errorf("peer: cannot encode zero term")
	}
}

func decodeTerm(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.IRI(jt.Value), nil
	case "bnode":
		return rdf.Blank(jt.Value), nil
	case "literal", "typed-literal":
		if jt.Lang != "" {
			return rdf.LangLiteral(jt.Value, jt.Lang), nil
		}
		return rdf.TypedLiteral(jt.Value, jt.Datatype), nil
	default:
		return rdf.Term{}, fmt.Errorf("peer: unknown term type %q", jt.Type)
	}
}

// jsonResults is the W3C SPARQL 1.1 JSON results document (SELECT and ASK).
type jsonResults struct {
	Head struct {
		Vars []string `json:"vars,omitempty"`
	} `json:"head"`
	Results *struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results,omitempty"`
	Boolean *bool `json:"boolean,omitempty"`
}

// EncodeResult marshals a query result as SPARQL JSON.
func EncodeResult(r *sparql.Result) ([]byte, error) {
	var doc jsonResults
	if r.Form == sparql.FormAsk {
		doc.Boolean = &r.True
		return json.Marshal(doc)
	}
	doc.Head.Vars = r.Vars
	doc.Results = &struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	}{Bindings: make([]map[string]jsonTerm, 0, len(r.Rows))}
	for _, row := range r.Rows {
		b := make(map[string]jsonTerm, len(row))
		for i, t := range row {
			if t.IsZero() {
				continue // unbound variable: omitted per the W3C format
			}
			jt, err := encodeTerm(t)
			if err != nil {
				return nil, err
			}
			b[r.Vars[i]] = jt
		}
		doc.Results.Bindings = append(doc.Results.Bindings, b)
	}
	return json.Marshal(doc)
}

// DecodeResult unmarshals a SPARQL JSON document into a query result.
func DecodeResult(data []byte) (*sparql.Result, error) {
	var doc jsonResults
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("peer: bad results document: %w", err)
	}
	if doc.Boolean != nil {
		return &sparql.Result{Form: sparql.FormAsk, True: *doc.Boolean}, nil
	}
	if doc.Results == nil {
		return nil, fmt.Errorf("peer: results document has neither boolean nor bindings")
	}
	res := &sparql.Result{Form: sparql.FormSelect, Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make(pattern.Tuple, len(res.Vars))
		for i, v := range res.Vars {
			jt, ok := b[v]
			if !ok {
				continue
			}
			t, err := decodeTerm(jt)
			if err != nil {
				return nil, err
			}
			row[i] = t
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
