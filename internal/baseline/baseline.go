// Package baseline implements the comparator strategies for the
// experiments: no-integration direct evaluation, a two-tier pairwise
// rewriter standing in for the prior-art systems the paper's introduction
// discusses ([18, 19, 20] rewrite between two vocabularies and do not
// compose mappings over arbitrary topologies), full materialisation via the
// chase, full UCQ rewriting, and the combined approach. All strategies
// return a common Report so the harness can tabulate answers, work and
// latency side by side.
package baseline

import (
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rewrite"
)

// Report is the outcome of answering one query with one strategy.
type Report struct {
	// Strategy names the answering strategy.
	Strategy string
	// Answers is the computed answer set.
	Answers *pattern.TupleSet
	// MaterializedTriples counts triples the strategy materialised beyond
	// the stored database (chase-based strategies only).
	MaterializedTriples int
	// Disjuncts is the UCQ size (rewriting-based strategies only).
	Disjuncts int
	// Truncated reports a bounded, possibly incomplete rewriting.
	Truncated bool
	// Duration is the end-to-end wall time.
	Duration time.Duration
}

// Completeness returns |answers| / |reference| as a fraction in [0, 1]
// (1 when the reference is empty).
func (r Report) Completeness(reference *pattern.TupleSet) float64 {
	if reference.Len() == 0 {
		return 1
	}
	found := 0
	for _, t := range reference.Sorted() {
		if r.Answers.Has(t) {
			found++
		}
	}
	return float64(found) / float64(reference.Len())
}

// NoIntegration evaluates the query directly over the stored database,
// ignoring every mapping — what plain SPARQL gives (Example 1's empty
// result).
func NoIntegration(sys *core.System, q pattern.Query) Report {
	start := time.Now()
	answers := plan.ExecuteQuery(sys.StoredDatabase(), q)
	return Report{
		Strategy: "no-integration",
		Answers:  answers,
		Duration: time.Since(start),
	}
}

// TwoTier rewrites with a single round of mapping applications — the
// two-tiered architectures of the related work, which entail direct
// mappings but never compose them across peers.
func TwoTier(sys *core.System, q pattern.Query) Report {
	start := time.Now()
	res, err := rewrite.Rewrite(q, sys, rewrite.Options{MaxDepth: 1})
	if err != nil {
		return Report{Strategy: "two-tier", Answers: pattern.NewTupleSet(), Duration: time.Since(start)}
	}
	answers := res.Evaluate(sys.StoredDatabase())
	return Report{
		Strategy:  "two-tier",
		Answers:   answers,
		Disjuncts: res.Size(),
		Truncated: res.Truncated,
		Duration:  time.Since(start),
	}
}

// Materialize chases the system to the universal solution and evaluates the
// query over it (Algorithm 1). Complete for every RPS (Theorem 1).
func Materialize(sys *core.System, q pattern.Query) (Report, error) {
	start := time.Now()
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		return Report{}, err
	}
	answers := u.CertainAnswers(q)
	return Report{
		Strategy:            "materialize",
		Answers:             answers,
		MaterializedTriples: u.Stats.TriplesAdded,
		Duration:            time.Since(start),
	}, nil
}

// MaterializeWith is Materialize against a pre-computed universal solution,
// for amortised-cost comparisons across many queries.
func MaterializeWith(u *chase.Universal, q pattern.Query) Report {
	start := time.Now()
	answers := u.CertainAnswers(q)
	return Report{
		Strategy:            "materialize(amortised)",
		Answers:             answers,
		MaterializedTriples: u.Stats.TriplesAdded,
		Duration:            time.Since(start),
	}
}

// FullRewrite computes the complete UCQ rewriting and evaluates it over the
// stored database. Perfect for linear/sticky mapping sets (Proposition 2).
func FullRewrite(sys *core.System, q pattern.Query, opts rewrite.Options) (Report, error) {
	start := time.Now()
	res, err := rewrite.Rewrite(q, sys, opts)
	if err != nil {
		return Report{}, err
	}
	answers := res.Evaluate(sys.StoredDatabase())
	return Report{
		Strategy:  "rewrite",
		Answers:   answers,
		Disjuncts: res.Size(),
		Truncated: res.Truncated,
		Duration:  time.Since(start),
	}, nil
}

// Combined runs the combined approach: canonicalised equivalences plus
// GMA-only rewriting (Section 5 future-work item 1).
func Combined(sys *core.System, q pattern.Query, opts rewrite.Options) (Report, error) {
	start := time.Now()
	comb := rewrite.NewCombined(sys)
	answers, res, err := comb.Answer(q, opts)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Strategy:  "combined",
		Answers:   answers,
		Disjuncts: res.Size(),
		Truncated: res.Truncated,
		Duration:  time.Since(start),
	}, nil
}
