package federation_test

import (
	"testing"

	"repro/internal/federation"
	"repro/internal/simnet"
	"repro/internal/sparql"
)

// The native VALUES probe rendering is what makes batched bind-join probes
// cheap at the peer: a batch of 16 bindings is ONE pattern scan hash-joined
// against the inlined rows, where the legacy UNION rendering evaluated one
// filtered copy of the pattern per binding. Pinned on the peers'
// process-wide BGP-evaluation counter.
func TestValuesProbeBatchIsOnePatternScan(t *testing.T) {
	sys, q := adaptiveChainSystem(t, 16)

	scansDuring := func(opts federation.Options) int64 {
		eng := deployOn(sys, simnet.New(), opts)
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
	base := federation.Options{BatchSize: 16}
	if got := scansDuring(base); got != 3 {
		t.Errorf("VALUES probes: %d pattern scans, want 3 (one per hop)", got)
	}

	// the legacy UNION rendering pays one scan per shipped binding:
	// 1 + 16 + 16
	union := base
	union.UnionProbes = true
	if got := scansDuring(union); got != 33 {
		t.Errorf("UNION probes: %d pattern scans, want 33 (one per binding per hop)", got)
	}

	// the one-shot wire changes the encoding, not the evaluation: still one
	// scan per VALUES batch
	oneShot := base
	oneShot.OneShot = true
	if got := scansDuring(oneShot); got != 3 {
		t.Errorf("VALUES probes over the one-shot wire: %d pattern scans, want 3", got)
	}
}
