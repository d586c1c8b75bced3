package federation_test

import (
	"testing"

	"repro/internal/federation"
	"repro/internal/simnet"
	"repro/internal/sparql"
)

// The native VALUES probe rendering is what makes batched bind-join probes
// cheap at the peer: a batch of 16 bindings is ONE pattern scan hash-joined
// against the inlined rows, not one filtered copy of the pattern per
// binding. Pinned on the peers' process-wide BGP-evaluation counter, over
// both wires.
func TestValuesProbeBatchIsOnePatternScan(t *testing.T) {
	sys, q := probeChainSystem(t, 16)

	scansDuring := func(oneShot bool) int64 {
		eng := deployWireOn(sys, simnet.New(), federation.Options{BatchSize: 16}, oneShot)
		before := sparql.PatternScans()
		got, _, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 16 {
			t.Fatalf("answers = %d, want 16", got.Len())
		}
		return sparql.PatternScans() - before
	}

	// chain of 3 patterns, 16 bindings wide: the first pattern is one
	// unrestricted fetch, the two probe hops ship one VALUES batch each —
	// 3 scans total, each a single batch
	if got := scansDuring(false); got != 3 {
		t.Errorf("VALUES probes: %d pattern scans, want 3 (one per hop)", got)
	}

	// a client that answers only whole changes the delivery, not the
	// evaluation: still one scan per VALUES batch
	if got := scansDuring(true); got != 3 {
		t.Errorf("VALUES probes over the one-shot wire: %d pattern scans, want 3", got)
	}
}
