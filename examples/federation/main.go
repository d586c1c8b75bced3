// The federation example runs the Section 5 prototype: each source of the
// Figure 1 system is deployed as a SPARQL service on a simulated network
// with a latency model, a registry plays the super-peer routing table, and
// the mediator answers the Example 1 query by rewriting it and joining
// per-source sub-query results along each disjunct's join graph. Traffic
// and per-link statistics show what the integration costs on the wire, and
// the step counters show how often the mediator shipped bindings and how
// often a pattern's extension.
package main

import (
	"fmt"
	"log"
	"time"

	rps "repro"
	"repro/internal/simnet"
	"repro/internal/workload"
)

func main() {
	sys := workload.Figure1System()
	ns := workload.FilmNamespaces()
	q := workload.Example1Query()

	fmt.Println("== federated execution ==")

	net := simnet.New(simnet.WithLatency(200 * time.Microsecond))
	reg := rps.NewRegistry()
	nodes := rps.DeployPeers(sys, net, reg)
	net.Register("mediator", nil)

	eng := rps.NewFederation(sys, reg, rps.NewPeerClient(net, "mediator"), rps.FederationOptions{})

	start := time.Now()
	answers, metrics, err := eng.Answer(q)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("answers (%d):\n", answers.Len())
	for _, t := range answers.Sorted() {
		fmt.Printf("  %-22s %s\n", ns.ShortenTerm(t[0]), ns.ShortenTerm(t[1]))
	}
	st := net.Stats()
	fmt.Printf("rewriting: %d disjuncts; remote calls: %d (%d served from cache)\n",
		metrics.Disjuncts, metrics.RemoteCalls, metrics.CacheHits)
	fmt.Printf("join steps: %d shipped bindings, %d shipped an extension\n",
		metrics.BindSteps, metrics.ExtensionSteps)
	fmt.Printf("rows shipped: %d; bytes on the wire: %d; simulated latency: %v; wall: %v\n",
		metrics.RowsFetched, st.BytesSent+st.BytesRecv, st.SimulatedLatency, elapsed.Round(time.Millisecond))
	for _, n := range nodes {
		link := net.Link("mediator", n.Addr())
		fmt.Printf("  %-10s %4d calls  %6d B out  %6d B in  (%d queries served)\n",
			n.Name(), link.Calls, link.BytesSent, link.BytesRecv, n.QueriesServed())
	}
	fmt.Println()

	// failure injection: queries fail loudly, not silently incompletely
	fmt.Println("== failure injection ==")
	net = simnet.New()
	reg = rps.NewRegistry()
	rps.DeployPeers(sys, net, reg)
	net.Register("mediator", nil)
	eng = rps.NewFederation(sys, reg, rps.NewPeerClient(net, "mediator"), rps.FederationOptions{})
	net.Fail("peer:source3")
	ageQ := rps.MustQuery([]string{"x"}, rps.GraphPattern{
		rps.TP(rps.V("x"), rps.C(workload.Age), rps.C(rps.Literal("59"))),
	})
	if _, _, err := eng.Answer(ageQ); err != nil {
		fmt.Printf("source3 down: %v\n", err)
	}
	net.Heal("peer:source3")
	answers, _, err = eng.Answer(ageQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source3 healed: %d answer(s)\n", answers.Len())
}
