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
package main

import (
	"flag"
	"fmt"
	"os"

	"powermanna"
	"powermanna/internal/topo"
)

func main() {
	var (
		topoFlag = flag.String("topo", "cluster8", "topology: cluster8 or system256")
		src      = flag.Int("src", 0, "source node")
		dst      = flag.Int("dst", 1, "destination node")
		network  = flag.Int("net", powermanna.NetworkA, "network plane: 0 (A) or 1 (B)")
		bytes    = flag.Int("bytes", 64, "payload size for transit timing")
		validate = flag.Bool("validate", false, "check the max-crossbars bound over all pairs")
	)
	flag.Parse()
	if *bytes < 0 {
		fmt.Fprintf(os.Stderr, "pmtopo: -bytes %d is negative\n", *bytes)
		os.Exit(1)
	}

	t, err := topo.ByName(*topoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range []struct {
		name string
		node int
	}{{"src", *src}, {"dst", *dst}} {
		if f.node < 0 || f.node >= t.Nodes() {
			fmt.Fprintf(os.Stderr, "pmtopo: -%s %d is out of range: %s has nodes 0 to %d\n", f.name, f.node, t.Name(), t.Nodes()-1)
			os.Exit(1)
		}
	}
	if *network != powermanna.NetworkA && *network != powermanna.NetworkB {
		fmt.Fprintf(os.Stderr, "pmtopo: -net %d is not a network plane: 0 (A) or 1 (B)\n", *network)
		os.Exit(1)
	}
	fmt.Printf("topology %s: %d nodes (%d processors), %d crossbars\n",
		t.Name(), t.Nodes(), 2*t.Nodes(), t.Crossbars())

	if *validate {
		max, err := t.MaxCrossbars()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("max crossbars over all %d node pairs and both networks: %d\n",
			t.Nodes()*(t.Nodes()-1), max)
		if t.Name() == "system256" && max == 3 {
			fmt.Println("matches the paper: any two nodes within three crossbars")
		}
		return
	}

	path, err := t.Route(*src, *dst, *network)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
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
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("transit of %d bytes: circuit up at %v, first byte %v, last byte %v (%d on the wire)\n",
		*bytes, tr.SetupDone, tr.FirstByte, tr.LastByte, tr.WireBytes)
}
