package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/rdf"
	"repro/internal/rewrite"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// scale sizes the generated systems. "full" is what BENCHMARK.json runs;
// "tiny" keeps the smoke test under a few seconds.
type scale struct {
	name string
	// the peer_* cloud: 8 peers, facts and entities per peer
	bigFacts, bigEntities int
	// the fed_* cloud
	smallFacts, smallEntities int
	// the chase_update film system
	films int
}

var scales = map[string]scale{
	"full": {"full", 25000, 5000, 2000, 500, 4000},
	"tiny": {"tiny", 400, 80, 160, 40, 120},
}

const lodPeers = 8

// peerQuery is one SPARQL request to a single peer's endpoint.
type peerQuery struct {
	peer     string
	text     string
	q        pattern.Query // the same query as a graph pattern query
	distinct bool
}

// peerTriple is a triple stored at a named peer.
type peerTriple struct {
	peer string
	t    rdf.Triple
}

// update is one change at the sources: new triples and the equivalence
// mappings harvested from their sameAs links.
type update struct {
	triples []peerTriple
	equivs  [][2]rdf.Term
}

// generator produces a system and the seed-determined inputs drawn from
// it. The query and update methods continue one sequence: every call
// returns inputs no earlier call returned, so warm-up, measured phase and
// layer probes never share a query text by accident.
type generator interface {
	system() *core.System
	namespaces() *rdf.Namespaces
	// rewriteOptions bounds the rewriting module for this system's
	// mediator-level queries.
	rewriteOptions() rewrite.Options
	peerQueries(n int) []peerQuery
	// hotQueries returns a population of cheap peer queries to be asked
	// over and over, with the same shape mix whatever the seed.
	hotQueries(n int) []peerQuery
	// cqs returns mediator-level conjunctive queries (pairwise distinct
	// on the cloud).
	cqs(n int) []pattern.Query
	updates(n int) []update
	// scanPatterns names a peer and two single-predicate patterns over its
	// data that join on a shared variable: the inputs of the scan, stream
	// and hash-join probes.
	scanPatterns() (peer string, a, b pattern.TriplePattern)
	// expected returns the number of certain answers the generator
	// predicts for a query cqs returned, once every update generated so
	// far is applied; -1 when it makes no prediction.
	expected(q pattern.Query) int
}

func newPeerQuery(peer string, q pattern.Query, distinct bool) peerQuery {
	sq := sparql.FromPatternQuery(q, nil)
	sq.Distinct = distinct
	return peerQuery{peer: peer, text: sq.String(), q: q, distinct: distinct}
}

// ---- the Linked Data cloud -------------------------------------------------

// lodGen is the 8-peer chain cloud of workload.LODSystem: every peer holds
// core edges over its own entities, and rename mappings carry peer i's
// edges into peer i+1's vocabulary. No equivalence mappings: they make the
// federated rewriting explode (see README, findings).
type lodGen struct {
	sys      *core.System
	entities int
	rng      *rand.Rand
	pairs    []int // shuffled (peer, entity) codes for unique peer queries
	nextPair int
	seenCQ   map[string]bool
	nextCQ   int
	nextUpd  int
}

func newLODGen(facts, entities int, seed int64) *lodGen {
	sys := workload.LODSystem(workload.LODConfig{
		Peers: lodPeers, Topology: workload.Chain, Shape: workload.Rename,
		FactsPerPeer: facts, EntitiesPerPeer: entities, EquivFraction: 0, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &lodGen{sys: sys, entities: entities, rng: rng,
		pairs: rng.Perm(lodPeers * entities), seenCQ: make(map[string]bool)}
}

func (g *lodGen) system() *core.System            { return g.sys }
func (g *lodGen) rewriteOptions() rewrite.Options { return rewrite.Options{} }
func (g *lodGen) expected(pattern.Query) int      { return -1 }

func (g *lodGen) scanPatterns() (string, pattern.TriplePattern, pattern.TriplePattern) {
	coreP := pattern.C(workload.LODPredicate(0, "core"))
	return "peer0", pattern.TP(pattern.V("x"), coreP, pattern.V("y")), pattern.TP(pattern.V("y"), coreP, pattern.V("z"))
}

func (g *lodGen) namespaces() *rdf.Namespaces {
	ns := rdf.NewNamespaces()
	for i := 0; i < lodPeers; i++ {
		ns.Bind(fmt.Sprintf("p%d", i), workload.LODNamespace(i))
	}
	return ns
}

// Peer query shapes and their weights. The mix leans on the shapes whose
// joins carry hundreds of intermediate rows and project few of them, so
// that executing the plan, not encoding the answer, is most of a request.
const (
	shapePath3   = iota // DISTINCT end of a 3-hop path: ~5+25+125 intermediate rows
	shapePath4          // DISTINCT end of a 4-hop path: ~780 intermediate rows
	shapeStar           // label and two core neighbours of one subject
	shapeInverse        // object-bound: who points at o, and where else do they point
	numShapes
)

var shapeWeights = [numShapes]int{45, 25, 15, 15}

func (g *lodGen) pickShape() int {
	r := g.rng.Intn(100)
	for s, w := range shapeWeights {
		if r < w {
			return s
		}
		r -= w
	}
	return shapePath3
}

func (g *lodGen) peerQueries(n int) []peerQuery {
	out := make([]peerQuery, n)
	for i := range out {
		out[i] = g.nextPeerQuery(g.pickShape())
	}
	return out
}

// hotQueries cycles through the three shapes with small answers (≤ ~125
// rows), so a hit costs about what the fixed path of a request costs and
// the population's mean answer size does not swing with the seed.
func (g *lodGen) hotQueries(n int) []peerQuery {
	out := make([]peerQuery, n)
	for i := range out {
		out[i] = g.nextPeerQuery([...]int{shapePath3, shapeStar, shapeInverse}[i%3])
	}
	return out
}

// nextPeerQuery uses each (peer, entity) pair once per lap, and a lap
// shifts the shape, so texts stay unique for numShapes laps.
func (g *lodGen) nextPeerQuery(shape int) peerQuery {
	code := g.pairs[g.nextPair%len(g.pairs)]
	lap := g.nextPair / len(g.pairs)
	g.nextPair++
	return g.peerQueryOf(code/g.entities, code%g.entities, (shape+lap)%numShapes)
}

func (g *lodGen) peerQueryOf(p, e, shape int) peerQuery {
	ent := pattern.C(workload.LODEntity(p, e))
	coreP := pattern.C(workload.LODPredicate(p, "core"))
	v := pattern.V
	var q pattern.Query
	distinct := false
	switch shape {
	case shapePath3, shapePath4:
		hops := 3
		if shape == shapePath4 {
			hops = 4
		}
		gp := pattern.GraphPattern{pattern.TP(ent, coreP, v("x1"))}
		for k := 1; k < hops; k++ {
			gp = append(gp, pattern.TP(v(fmt.Sprintf("x%d", k)), coreP, v(fmt.Sprintf("x%d", k+1))))
		}
		q = pattern.MustQuery([]string{fmt.Sprintf("x%d", hops)}, gp)
		distinct = true
	case shapeStar:
		q = pattern.MustQuery([]string{"l", "y0", "y1"}, pattern.GraphPattern{
			pattern.TP(ent, pattern.C(workload.LODPredicate(p, "label")), v("l")),
			pattern.TP(ent, coreP, v("y0")),
			pattern.TP(ent, coreP, v("y1")),
		})
	default: // shapeInverse
		q = pattern.MustQuery([]string{"a", "b"}, pattern.GraphPattern{
			pattern.TP(v("a"), coreP, ent),
			pattern.TP(v("a"), coreP, v("b")),
		})
	}
	return newPeerQuery(fmt.Sprintf("peer%d", p), q, distinct)
}

// cqs returns distinct 2- and 3-pattern path queries in the vocabulary of
// peer v whose constant is an entity of an upstream peer j ≤ v, so the
// answers exist only through the chain of rename mappings from j to v.
//
// The rewriting of an h-hop path in the vocabulary of peer v has on the
// order of (v+1)^h disjuncts, and the mediator joins a disjunct's
// extensions smallest-first, not along the path, so a 3-hop disjunct can
// pass through a cross product and costs ten times a 2-hop one. Every
// tenth query is such a 3-hop path, kept to the first mapping hop (15
// disjuncts; one class of heavy query, so that p95 falls inside it and not
// on a boundary between two); the others are 2-hop paths, cycling over the
// chain (1–71 disjuncts). Shape
// and vocabulary follow the query's position, not the seed, so that two
// seeds run the same mix; the seed picks the source peer and the entity.
func (g *lodGen) cqs(n int) []pattern.Query {
	out := make([]pattern.Query, 0, n)
	for len(out) < n {
		k := g.nextCQ
		hops, vocab := 2, k%lodPeers
		if k%10 == 9 {
			hops, vocab = 3, 1
		}
		src := g.rng.Intn(vocab + 1)
		e := g.rng.Intn(g.entities)
		key := fmt.Sprintf("%d/%d/%d/%d", vocab, src, e, hops)
		if g.seenCQ[key] && len(g.seenCQ) < g.entities {
			continue // redraw; a small cloud may run out of distinct queries
		}
		g.seenCQ[key] = true
		g.nextCQ++
		out = append(out, lodPathCQ(vocab, src, e, hops))
	}
	return out
}

func lodPathCQ(vocab, src, e, hops int) pattern.Query {
	coreP := pattern.C(workload.LODPredicate(vocab, "core"))
	gp := pattern.GraphPattern{pattern.TP(pattern.C(workload.LODEntity(src, e)), coreP, pattern.V("x1"))}
	for k := 1; k < hops; k++ {
		gp = append(gp, pattern.TP(pattern.V(fmt.Sprintf("x%d", k)), coreP, pattern.V(fmt.Sprintf("x%d", k+1))))
	}
	return pattern.MustQuery([]string{fmt.Sprintf("x%d", hops-1), fmt.Sprintf("x%d", hops)}, gp)
}

// updates adds, per update, four core edges from a brand-new entity of one
// peer to existing ones; the chase carries them down the mapping chain.
func (g *lodGen) updates(n int) []update {
	out := make([]update, n)
	for i := range out {
		p := g.nextUpd % lodPeers
		subj := workload.LODEntity(p, g.entities+g.nextUpd)
		g.nextUpd++
		var u update
		for k := 0; k < 4; k++ {
			u.triples = append(u.triples, peerTriple{fmt.Sprintf("peer%d", p), rdf.Triple{
				S: subj, P: workload.LODPredicate(p, "core"), O: workload.LODEntity(p, g.rng.Intn(g.entities)),
			}})
		}
		out[i] = u
	}
	return out
}

// ---- the film system -------------------------------------------------------

const filmActors = 3

// filmGen is workload.ScaledFilmSystem — Figure 1 of the paper scaled up:
// three sources, one graph mapping assertion, and sameAs links for half of
// the actors and films, harvested as equivalence mappings.
type filmGen struct {
	sys      *core.System
	films    int // films in the system, grows with updates
	rng      *rand.Rand
	order    []int
	nextPeer int
	// sameAs[f] is how many of film f's actors carry a sameAs link; it
	// fixes the film query's answer count.
	sameAs map[int]int
}

func newFilmGen(films int, seed int64) *filmGen {
	sys := workload.ScaledFilmSystem(workload.FilmConfig{
		Films: films, ActorsPerFilm: filmActors, SameAsFraction: 0.5, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed ^ 0xf11a))
	g := &filmGen{sys: sys, films: films, rng: rng, order: rng.Perm(films), sameAs: make(map[int]int)}
	s1 := sys.Peer("source1").Data()
	for f := 0; f < films; f++ {
		for a := 0; a < filmActors; a++ {
			if s1.Has(rdf.Triple{S: filmActor1(f, a), P: workload.SameAs, O: filmActorF(f, a)}) {
				g.sameAs[f]++
			}
		}
	}
	return g
}

func filmActor1(f, a int) rdf.Term {
	return rdf.IRI(fmt.Sprintf("%sActor%d_%d", workload.NSDB1, f, a))
}
func filmActorF(f, a int) rdf.Term {
	return rdf.IRI(fmt.Sprintf("%sActor%d_%d", workload.NSFoaf, f, a))
}
func film1(f int) rdf.Term { return rdf.IRI(fmt.Sprintf("%sFilm%d", workload.NSDB1, f)) }
func film2(f int) rdf.Term { return rdf.IRI(fmt.Sprintf("%sFilm%d_r", workload.NSDB2, f)) }

func (g *filmGen) system() *core.System        { return g.sys }
func (g *filmGen) namespaces() *rdf.Namespaces { return workload.FilmNamespaces() }

func (g *filmGen) scanPatterns() (string, pattern.TriplePattern, pattern.TriplePattern) {
	return "source1", pattern.TP(pattern.V("x"), pattern.C(workload.Starring), pattern.V("z")),
		pattern.TP(pattern.V("z"), pattern.C(workload.Artist), pattern.V("y"))
}

// rewriteOptions caps the rewriting: under thousands of equivalence
// mappings the perfect rewriting of the film query does not fit any bound
// (README, findings), so the mediator-level probes on this system measure
// a bounded expansion, not a complete answer.
func (g *filmGen) rewriteOptions() rewrite.Options { return rewrite.Options{MaxQueries: 200} }

// expected: every sameAs-linked actor answers twice (under both names, with
// the age copied across the equivalence); an even film also gains the
// extra actor of source 2 through the mapping assertion, under two names.
func (g *filmGen) expected(q pattern.Query) int {
	var f int
	if _, err := fmt.Sscanf(q.GP[0].S.Term().Value(), workload.NSDB1+"Film%d", &f); err != nil {
		return -1
	}
	n := 2 * g.sameAs[f]
	if f%2 == 0 {
		n += 2
	}
	return n
}

func (g *filmGen) peerQueries(n int) []peerQuery {
	out := make([]peerQuery, n)
	for i := range out {
		f := g.order[g.nextPeer%len(g.order)]
		lap := g.nextPeer / len(g.order)
		g.nextPeer++
		switch lap % 2 {
		case 0: // the cast of a film, as source 1 stores it
			out[i] = newPeerQuery("source1", pattern.MustQuery([]string{"x"}, pattern.GraphPattern{
				pattern.TP(pattern.C(film1(f)), pattern.C(workload.Starring), pattern.V("z")),
				pattern.TP(pattern.V("z"), pattern.C(workload.Artist), pattern.V("x")),
			}), false)
		default: // the age of an actor, as source 3 stores it
			out[i] = newPeerQuery("source3", pattern.MustQuery([]string{"y"}, pattern.GraphPattern{
				pattern.TP(pattern.C(filmActorF(f, lap%filmActors)), pattern.C(workload.Age), pattern.V("y")),
			}), false)
		}
	}
	return out
}

func (g *filmGen) hotQueries(n int) []peerQuery { return g.peerQueries(n) }

// cqs returns the Example 1 query for seed-chosen films out of the
// (growing) film population; films may repeat.
func (g *filmGen) cqs(n int) []pattern.Query {
	out := make([]pattern.Query, n)
	for i := range out {
		out[i] = workload.ScaledFilmQuery(g.rng.Intn(g.films))
	}
	return out
}

// updates inserts, per update, one new film exactly as ScaledFilmSystem
// would have generated it.
func (g *filmGen) updates(n int) []update {
	out := make([]update, n)
	for i := range out {
		f := g.films
		g.films++
		var u update
		add := func(peer string, s, p, o rdf.Term) {
			u.triples = append(u.triples, peerTriple{peer, rdf.Triple{S: s, P: p, O: o}})
		}
		link := func(peer string, a, b rdf.Term) {
			add(peer, a, workload.SameAs, b)
			u.equivs = append(u.equivs, [2]rdf.Term{a, b})
		}
		linked := f%2 == 0
		if linked {
			link("source1", film1(f), film2(f))
		}
		for a := 0; a < filmActors; a++ {
			node := rdf.Blank(fmt.Sprintf("cast%d_%d", f, a))
			add("source1", film1(f), workload.Starring, node)
			add("source1", node, workload.Artist, filmActor1(f, a))
			add("source3", filmActorF(f, a), workload.Age, rdf.Literal(fmt.Sprintf("%d", 20+g.rng.Intn(60))))
			if g.rng.Float64() < 0.5 {
				link("source1", filmActor1(f, a), filmActorF(f, a))
				g.sameAs[f]++
			}
		}
		if linked {
			extra := rdf.IRI(fmt.Sprintf("%sExtra%d", workload.NSDB2, f))
			extraF := rdf.IRI(fmt.Sprintf("%sExtra%d", workload.NSFoaf, f))
			add("source2", film2(f), workload.Actor, extra)
			add("source3", extraF, workload.Age, rdf.Literal(fmt.Sprintf("%d", 20+g.rng.Intn(60))))
			link("source3", extraF, extra)
		}
		out[i] = u
	}
	return out
}
