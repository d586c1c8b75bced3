package federation_test

import (
	"net/http/httptest"
	"testing"

	"repro/internal/federation"
	"repro/internal/pattern"
	"repro/internal/peer"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// A stored blank node at a GMA's answer position: `_:film ex:actor
// DB2:Nobody` in source2. The chase fires Q2 ⤳ Q1 on resources only, so
// Nobody stars in no film, and the query below — whose ?x the film GMA's
// rewriting replaces by the blank-capable subject of ex:actor — has
// exactly the chase's answers under rewriting, the combined approach, and
// the mediator over simnet and over HTTP.
func TestBlankAtGMAAnswerPositionMatchesChase(t *testing.T) {
	sys := workload.Figure1System()
	nobody := rdf.IRI(workload.NSDB2 + "Nobody")
	if err := sys.Peer("source2").Add(rdf.Triple{S: rdf.Blank("film"), P: workload.Actor, O: nobody}); err != nil {
		t.Fatal(err)
	}
	q := pattern.MustQuery([]string{"y"}, pattern.GraphPattern{
		pattern.TP(pattern.V("x"), pattern.C(workload.Starring), pattern.V("z")),
		pattern.TP(pattern.V("z"), pattern.C(workload.Artist), pattern.V("y")),
	})
	want := chaseAnswers(t, sys, q)
	if want.Has(pattern.Tuple{nobody}) || want.Len() == 0 {
		t.Fatalf("chase answers %v: want the stored artists, without Nobody", want.Sorted())
	}

	res, err := rewrite.Rewrite(q, sys, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Evaluate(sys.StoredDatabase()); !got.Equal(want) {
		t.Errorf("rewrite:\n got %v\nwant %v", got.Sorted(), want.Sorted())
	}
	got, _, err := rewrite.NewCombined(sys).Answer(q, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("combined:\n got %v\nwant %v", got.Sorted(), want.Sorted())
	}

	reg := peer.NewRegistry()
	for _, p := range sys.Peers() {
		srv := httptest.NewServer(peer.NewHTTPService(p))
		defer srv.Close()
		reg.Add(peer.Entry{Name: p.Name(), Addr: srv.URL, Schema: p.Schema()})
	}
	for name, eng := range map[string]*federation.Engine{
		"simnet": deployOn(sys, simnet.New(), federation.Options{}),
		"HTTP":   federation.New(sys, reg, &peer.HTTPClient{}, federation.Options{}),
	} {
		got, _, err := eng.Answer(q)
		if err != nil {
			t.Errorf("federation over %s: %v", name, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("federation over %s:\n got %v\nwant %v", name, got.Sorted(), want.Sorted())
		}
	}
}
