package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/simnet"
	"repro/internal/sparql"
)

// fedStreamingResult is the streaming wire protocol benchmark's report, in
// two parts. The wire-cost table runs a 3-pattern probe chain on an
// instant network and reads off what each (wire mode × probe batch size)
// cell pays: network calls, bytes, peer-side pattern scans (the native
// VALUES rendering makes a whole probe batch ONE scan) and rows produced.
// The first-row section runs a rename fan over a 5ms/limited-bandwidth
// network and compares time-to-first-answer: the streamed union surfaces a
// row after one chunk round-trip, the one-shot wire only after the full
// extensions have crossed the wire.
type fedStreamingResult struct {
	ChainFacts int                `json:"chainFacts"`
	Cells      []fedStreamingCell `json:"cells"`
	FirstRow   fedFirstRowResult  `json:"firstRow"`
}

// fedStreamingCell is one (wire mode, probe batch size) measurement of the
// chain workload.
type fedStreamingCell struct {
	Mode         string `json:"mode"` // "stream" or "oneshot"
	BatchSize    int    `json:"batchSize"`
	Rows         int    `json:"rows"`
	Calls        int    `json:"calls"`
	BytesSent    int    `json:"bytesSent"`
	BytesRecv    int    `json:"bytesRecv"`
	PatternScans int64  `json:"patternScans"`
	RowsProduced int64  `json:"rowsProduced"`
	WallUs       int64  `json:"wallUs"`
}

// fedFirstRowResult compares time-to-first-row over a slow wire. The
// speedup gate is the PR's acceptance criterion: streamed first-row latency
// at least 5x better than one-shot at 5ms simulated latency.
type fedFirstRowResult struct {
	Peers             int     `json:"peers"`
	FactsPerPeer      int     `json:"factsPerPeer"`
	LatencyMs         int     `json:"latencyMs"`
	Rows              int     `json:"rows"`
	OneShotFirstRowUs int64   `json:"oneShotFirstRowUs"`
	OneShotTotalUs    int64   `json:"oneShotTotalUs"`
	StreamFirstRowUs  int64   `json:"streamFirstRowUs"`
	StreamTotalUs     int64   `json:"streamTotalUs"`
	FirstRowSpeedup   float64 `json:"firstRowSpeedup"`
	FirstRowSpeedupOK bool    `json:"firstRowSpeedupOK"`
}

// fedChainSystem is the 2-peer, 3-pattern chain of the adaptive-batching
// tests: alice likes n people (peer "facts"), each knows a friend with a
// name (peer "bulk"), so the second and third hop are probes that ship n
// bindings each.
func fedChainSystem(n int) (*core.System, pattern.Query, error) {
	sys := core.NewSystem()
	facts := sys.AddPeer("facts")
	bulk := sys.AddPeer("bulk")
	likes := rdf.IRI("http://bench/likes")
	knows := rdf.IRI("http://bench/knows")
	name := rdf.IRI("http://bench/name")
	alice := rdf.IRI("http://bench/alice")
	for i := 0; i < n; i++ {
		person := rdf.IRI(fmt.Sprintf("http://bench/person%d", i))
		friend := rdf.IRI(fmt.Sprintf("http://bench/friend%d", i))
		if err := facts.Add(rdf.Triple{S: alice, P: likes, O: person}); err != nil {
			return nil, pattern.Query{}, err
		}
		if err := bulk.Add(rdf.Triple{S: person, P: knows, O: friend}); err != nil {
			return nil, pattern.Query{}, err
		}
		if err := bulk.Add(rdf.Triple{S: friend, P: name, O: rdf.Literal(fmt.Sprintf("n%d", i))}); err != nil {
			return nil, pattern.Query{}, err
		}
	}
	q := pattern.MustQuery([]string{"n"}, pattern.GraphPattern{
		pattern.TP(pattern.C(alice), pattern.C(likes), pattern.V("x")),
		pattern.TP(pattern.V("x"), pattern.C(knows), pattern.V("y")),
		pattern.TP(pattern.V("y"), pattern.C(name), pattern.V("n")),
	})
	return sys, q, nil
}

// runFedStreamingBenchmark measures the streaming wire protocol against the
// one-shot encoding (see fedStreamingResult).
func runFedStreamingBenchmark(quick bool) (*fedStreamingResult, error) {
	chainFacts := 600
	if quick {
		chainFacts = 200
	}
	res := &fedStreamingResult{ChainFacts: chainFacts}

	sys, q, err := fedChainSystem(chainFacts)
	if err != nil {
		return nil, err
	}
	for _, mode := range []string{"stream", "oneshot"} {
		for _, batch := range []int{1, 16, 1024} {
			cell, err := runChainCell(sys, q, chainFacts, mode, batch)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}

	first, err := runFirstRowComparison()
	if err != nil {
		return nil, err
	}
	res.FirstRow = *first
	return res, nil
}

// oneShotClient hides peer.Client's QueryStream, so a mediator over it
// takes the one-shot wire: every sub-query result crosses as one document.
type oneShotClient struct{ federation.Client }

// mediatorClient is the mediator's simnet client, streaming or one-shot.
func mediatorClient(net *simnet.Network, oneShot bool) federation.Client {
	c := peer.NewClient(net, "mediator")
	if oneShot {
		return oneShotClient{c}
	}
	return c
}

// runChainCell answers the chain query once on a fresh instant network and
// reads the wire and peer-side cost counters.
func runChainCell(sys *core.System, q pattern.Query, wantRows int, mode string, batch int) (fedStreamingCell, error) {
	net := simnet.New()
	reg := peer.NewRegistry()
	nodes := peer.Deploy(sys, net, reg)
	net.Register("mediator", nil)
	eng := federation.New(sys, reg, mediatorClient(net, mode == "oneshot"), federation.Options{
		BatchSize: batch,
		// a window as wide as the left side keeps every cell on the probe
		// path (the step ships bindings while they fit in batch × window)
		MaxInFlight: wantRows,
	})
	scans0 := sparql.PatternScans()
	start := time.Now()
	got, _, err := eng.Answer(q)
	wall := time.Since(start)
	if err != nil {
		return fedStreamingCell{}, fmt.Errorf("fedstreaming: chain %s batch=%d: %w", mode, batch, err)
	}
	if got.Len() != wantRows {
		return fedStreamingCell{}, fmt.Errorf("fedstreaming: chain %s batch=%d: %d rows, want %d", mode, batch, got.Len(), wantRows)
	}
	var produced int64
	for _, nd := range nodes {
		produced += nd.RowsProduced()
	}
	stats := net.Stats()
	return fedStreamingCell{
		Mode:         mode,
		BatchSize:    batch,
		Rows:         got.Len(),
		Calls:        stats.Calls,
		BytesSent:    stats.BytesSent,
		BytesRecv:    stats.BytesRecv,
		PatternScans: sparql.PatternScans() - scans0,
		RowsProduced: produced,
		WallUs:       wall.Microseconds(),
	}, nil
}

// runFirstRowComparison opens the federated plan over a 5ms, bandwidth-
// charged network and times the first row and the full drain, streamed vs
// one-shot. The fan extensions are wide enough (hundreds of KB as one-shot
// documents) that the one-shot first row waits behind the whole transfer,
// while the streamed union answers after one 128-row chunk.
func runFirstRowComparison() (*fedFirstRowResult, error) {
	const (
		peers   = 3
		facts   = 4000
		latency = 5 * time.Millisecond
		perByte = 250 * time.Nanosecond
	)
	sys, q, err := fedFaultsSystem(peers, facts)
	if err != nil {
		return nil, err
	}
	wantRows := peers * facts

	run := func(oneShot bool) (firstRow, total time.Duration, err error) {
		net := simnet.New(simnet.WithRealDelay(), simnet.WithLatency(latency), simnet.WithBandwidthCost(perByte))
		reg := peer.NewRegistry()
		peer.Deploy(sys, net, reg)
		net.Register("mediator", nil)
		eng := federation.New(sys, reg, mediatorClient(net, oneShot), federation.Options{})
		pq, err := eng.Plan(q)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		it := pq.Root.Open(context.Background(), nil)
		defer it.Close()
		rows := 0
		for {
			_, ok := it.Next()
			if !ok {
				break
			}
			rows++
			if rows == 1 {
				firstRow = time.Since(start)
			}
		}
		total = time.Since(start)
		if err := pq.Err(); err != nil {
			return 0, 0, err
		}
		if rows != wantRows {
			return 0, 0, fmt.Errorf("fedstreaming: first-row run (oneShot=%v): %d rows, want %d", oneShot, rows, wantRows)
		}
		return firstRow, total, nil
	}

	oneFirst, oneTotal, err := run(true)
	if err != nil {
		return nil, err
	}
	strFirst, strTotal, err := run(false)
	if err != nil {
		return nil, err
	}
	speedup := 0.0
	if strFirst > 0 {
		speedup = float64(oneFirst) / float64(strFirst)
	}
	return &fedFirstRowResult{
		Peers:             peers,
		FactsPerPeer:      facts,
		LatencyMs:         int(latency / time.Millisecond),
		Rows:              wantRows,
		OneShotFirstRowUs: oneFirst.Microseconds(),
		OneShotTotalUs:    oneTotal.Microseconds(),
		StreamFirstRowUs:  strFirst.Microseconds(),
		StreamTotalUs:     strTotal.Microseconds(),
		FirstRowSpeedup:   speedup,
		FirstRowSpeedupOK: speedup >= 5,
	}, nil
}
