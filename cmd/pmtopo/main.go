// Command pmtopo builds and inspects PowerMANNA interconnect topologies:
// the Figure 5a eight-node cluster and the Figure 5b 256-processor
// system. It prints routes (with the route-command bytes the crossbars
// consume), validates the paper's three-crossbar bound, and times a
// message over the simulated network.
//
// Usage:
//
//	pmtopo -topo system256 -src 0 -dst 127 -net 1 -bytes 64
//	pmtopo -topo system256 -validate
//
// -validate checks every pair, so -src, -dst, -net and -bytes with it
// are a usage error.
package main

import (
	"flag"
	"fmt"

	"powermanna"
	"powermanna/internal/cli"
)

func main() {
	c := cli.New("pmtopo", cli.Topo)
	var (
		src      = flag.Int("src", 0, "source node")
		dst      = flag.Int("dst", 1, "destination node")
		network  = flag.Int("net", powermanna.NetworkA, "network plane: 0 (A) or 1 (B)")
		bytes    = flag.Int("bytes", 64, "payload size for transit timing")
		validate = flag.Bool("validate", false, "check the max-crossbars bound over all pairs")
	)
	c.Parse()
	if *validate {
		c.NoEffect("with -validate", "-src", "-dst", "-net", "-bytes")
	}
	if *bytes < 0 {
		c.Check(fmt.Errorf("-bytes %d is negative", *bytes))
	}

	t := c.Topo
	for _, f := range []struct {
		name string
		node int
	}{{"src", *src}, {"dst", *dst}} {
		if f.node < 0 || f.node >= t.Nodes() {
			c.Check(fmt.Errorf("-%s %d is out of range: %s has nodes 0 to %d", f.name, f.node, t.Name(), t.Nodes()-1))
		}
	}
	if *network != powermanna.NetworkA && *network != powermanna.NetworkB {
		c.Check(fmt.Errorf("-net %d is not a network plane: 0 (A) or 1 (B)", *network))
	}
	fmt.Printf("topology %s: %d nodes (%d processors), %d crossbars\n",
		t.Name(), t.Nodes(), 2*t.Nodes(), t.Crossbars())

	if *validate {
		max, err := t.MaxCrossbars()
		c.Check(err)
		fmt.Printf("max crossbars over all %d node pairs and both networks: %d\n",
			t.Nodes()*(t.Nodes()-1), max)
		if t.Name() == "system256" && max == 3 {
			fmt.Println("matches the paper: any two nodes within three crossbars")
		}
		return
	}

	path, err := t.Route(*src, *dst, *network)
	c.Check(err)
	fmt.Printf("route %d -> %d on network %c:\n", *src, *dst, 'A'+rune(*network))
	for i, h := range path.Hops {
		async := ""
		if h.AsyncIn {
			async = " (entered via async transceiver link)"
		}
		fmt.Printf("  hop %d: crossbar %s, in %d -> out %d%s\n",
			i+1, t.CrossbarName(h.Xbar), h.In, h.Out, async)
	}
	fmt.Printf("route bytes in header: %v\n", path.RouteBytes)

	net := powermanna.NewNetwork(t)
	//pmlint:allow layering pmtopo prints raw single-message transit timing along an explicit path
	tr, err := net.Send(0, path, *bytes)
	c.Check(err)
	fmt.Printf("transit of %d bytes: circuit up at %v, first byte %v, last byte %v (%d on the wire)\n",
		*bytes, tr.SetupDone, tr.FirstByte, tr.LastByte, tr.WireBytes)
}
