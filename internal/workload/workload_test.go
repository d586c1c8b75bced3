package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/workload"
)

func TestFigure1Shape(t *testing.T) {
	sys := workload.Figure1System()
	st := sys.Stats()
	if st.Peers != 3 || st.GMappings != 1 || st.Equivalences != 4 {
		t.Errorf("stats = %+v", st)
	}
	// deterministic: rebuilding gives the same stored database
	d1 := sys.StoredDatabase()
	d2 := workload.Figure1System().StoredDatabase()
	if !d1.Equal(d2) {
		t.Error("Figure1System not deterministic")
	}
}

func TestScaledFilmDeterministicAndLinearGrowth(t *testing.T) {
	cfg := workload.FilmConfig{Films: 4, ActorsPerFilm: 2, SameAsFraction: 0.5, Seed: 3}
	a := workload.ScaledFilmSystem(cfg)
	b := workload.ScaledFilmSystem(cfg)
	if !a.StoredDatabase().Equal(b.StoredDatabase()) {
		t.Error("scaled film generator not deterministic")
	}
	small := workload.ScaledFilmSystem(workload.FilmConfig{Films: 4, ActorsPerFilm: 2, Seed: 3})
	big := workload.ScaledFilmSystem(workload.FilmConfig{Films: 8, ActorsPerFilm: 2, Seed: 3})
	sn, bn := small.StoredDatabase().Len(), big.StoredDatabase().Len()
	if bn <= sn || bn > 3*sn {
		t.Errorf("growth not roughly linear: %d -> %d", sn, bn)
	}
}

func TestScaledFilmQueriesAnswerable(t *testing.T) {
	cfg := workload.FilmConfig{Films: 4, ActorsPerFilm: 2, SameAsFraction: 1.0, Seed: 9}
	sys := workload.ScaledFilmSystem(cfg)
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		got := u.CertainAnswers(workload.ScaledFilmQuery(f))
		if got.Len() == 0 {
			t.Errorf("film %d: no answers", f)
		}
	}
	// even-indexed films are linked to source2 and gain an extra actor via
	// the GMA: their answer set must strictly exceed the direct one
	direct := plan.ExecuteQuery(sys.StoredDatabase(), workload.ScaledFilmQuery(0))
	integrated := u.CertainAnswers(workload.ScaledFilmQuery(0))
	if integrated.Len() <= direct.Len() {
		t.Errorf("integration added nothing: direct %d, integrated %d", direct.Len(), integrated.Len())
	}
}

func TestLODSystemTopologies(t *testing.T) {
	for _, top := range []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.Random} {
		t.Run(top.String(), func(t *testing.T) {
			cfg := workload.LODConfig{
				Peers: 4, Topology: top, FactsPerPeer: 5,
				EntitiesPerPeer: 6, EquivFraction: 0.5, Seed: 1, EdgeProb: 0.4,
			}
			sys := workload.LODSystem(cfg)
			if len(sys.Peers()) != 4 {
				t.Fatalf("peers = %d", len(sys.Peers()))
			}
			if len(sys.G) == 0 {
				t.Fatal("no mapping assertions generated")
			}
			// the chase must terminate on every topology, including cycles
			u, err := chase.Run(sys, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if u.Graph.Len() < sys.StoredDatabase().Len() {
				t.Error("universal solution smaller than stored database")
			}
			if !sys.IsSolution(u.Graph) {
				t.Errorf("%v: chase result is not a solution", top)
			}
		})
	}
}

func TestLODSystemDeterministic(t *testing.T) {
	cfg := workload.LODConfig{Peers: 3, Topology: Chain2(), FactsPerPeer: 4, EntitiesPerPeer: 5, EquivFraction: 0.7, Seed: 42}
	a := workload.LODSystem(cfg)
	b := workload.LODSystem(cfg)
	if !a.StoredDatabase().Equal(b.StoredDatabase()) {
		t.Error("LOD generator not deterministic")
	}
	if len(a.E) != len(b.E) || len(a.G) != len(b.G) {
		t.Error("mappings not deterministic")
	}
}

// Chain2 avoids an unused-import dance in the config literal above.
func Chain2() workload.Topology { return workload.Chain }

func TestCycleIntegratesAllPeers(t *testing.T) {
	cfg := workload.LODConfig{Peers: 3, Topology: workload.Cycle, FactsPerPeer: 3, EntitiesPerPeer: 4, Seed: 7}
	sys := workload.LODSystem(cfg)
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// every peer's core facts are visible in every other vocabulary
	total := pattern.NewTupleSet()
	for i := 0; i < 3; i++ {
		direct := plan.ExecuteQuery(sys.Peer(fmt.Sprintf("peer%d", i)).Data(), workload.CoreQuery(i))
		for _, tu := range direct.Sorted() {
			total.Add(tu)
		}
	}
	for i := 0; i < 3; i++ {
		got := u.CertainAnswers(workload.CoreQuery(i))
		if !total.SubsetOf(got) {
			t.Errorf("peer %d vocabulary misses facts: %d < %d", i, got.Len(), total.Len())
		}
	}
}

func TestGMAShapes(t *testing.T) {
	for _, shape := range []workload.GMAShape{workload.Rename, workload.EdgeToPath, workload.PathToEdge} {
		t.Run(shape.String(), func(t *testing.T) {
			cfg := workload.LODConfig{Peers: 2, Topology: workload.Chain, FactsPerPeer: 4, EntitiesPerPeer: 5, Shape: shape, Seed: 2}
			sys := workload.LODSystem(cfg)
			u, err := chase.Run(sys, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sys.IsSolution(u.Graph) {
				t.Errorf("shape %v: not a solution", shape)
			}
			switch shape {
			case workload.Rename:
				// peer0 facts visible as peer1 core edges
				if u.CertainAnswers(workload.CoreQuery(1)).Len() == 0 {
					t.Error("rename mapping produced no integrated answers")
				}
			case workload.EdgeToPath:
				// peer0 facts visible as via/hop paths at peer 1
				q := pattern.MustQuery([]string{"x", "y"}, pattern.GraphPattern{
					pattern.TP(pattern.V("x"), pattern.C(workload.LODPredicate(1, "via")), pattern.V("z")),
					pattern.TP(pattern.V("z"), pattern.C(workload.LODPredicate(1, "hop")), pattern.V("y")),
				})
				if u.CertainAnswers(q).Len() == 0 {
					t.Error("edge-to-path mapping produced no paths")
				}
			}
		})
	}
}

func TestHopSystem(t *testing.T) {
	sys := workload.HopSystem(3, 5, 1)
	if len(sys.Peers()) != 4 || len(sys.G) != 3 {
		t.Fatalf("hops misconfigured: %d peers %d mappings", len(sys.Peers()), len(sys.G))
	}
	u, err := chase.Run(sys, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// all 5 facts reach the last peer's vocabulary
	got := u.CertainAnswers(workload.CoreQuery(3))
	if got.Len() != 5 {
		t.Errorf("hop integration = %d answers, want 5", got.Len())
	}
	// and none are visible without integration
	direct := plan.ExecuteQuery(sys.StoredDatabase(), workload.CoreQuery(3))
	if direct.Len() != 0 {
		t.Errorf("direct evaluation should find nothing at the far peer, got %d", direct.Len())
	}
}

func TestQueryGenerators(t *testing.T) {
	pq := workload.PathQuery(0, 3)
	if pq.Arity() != 2 || len(pq.GP) != 3 {
		t.Errorf("path query = %v", pq)
	}
	sq := workload.StarQuery(0, 2)
	if sq.Arity() != 4 || len(sq.GP) != 3 {
		t.Errorf("star query = %v", sq)
	}
	// path query evaluates over a generated system without error
	sys := workload.LODSystem(workload.LODConfig{Peers: 2, Topology: workload.Chain, FactsPerPeer: 10, EntitiesPerPeer: 4, Seed: 5})
	_ = plan.ExecuteQuery(sys.StoredDatabase(), pq)
	_ = plan.ExecuteQuery(sys.StoredDatabase(), sq)
}

func TestListing1Fixtures(t *testing.T) {
	if len(workload.Listing1Expected()) != 6 {
		t.Error("Listing 1 has six rows")
	}
	if len(workload.Listing1ExpectedNoRedundancy()) != 3 {
		t.Error("redundancy-free Listing 1 has three rows")
	}
	ns := workload.FilmNamespaces()
	if ns.MustExpand("DB1:Spiderman") != workload.NSDB1+"Spiderman" {
		t.Error("namespace table wrong")
	}
	q := workload.Example1Query()
	if q.Arity() != 2 || len(q.GP) != 3 {
		t.Errorf("example query = %v", q)
	}
	if got := workload.LODEntity(2, 3); got != rdf.IRI("http://peer2.example.org/ent3") {
		t.Errorf("LODEntity = %v", got)
	}
}
