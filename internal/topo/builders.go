package topo

import "fmt"

// ByName builds a paper topology by the name the command-line tools take
// in --topo: "cluster8" (Figure 5a) or "system256" (Figure 5b).
func ByName(name string) (*Topology, error) {
	switch name {
	case "cluster8":
		return Cluster8(), nil
	case "system256":
		return System256(), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// Cluster8 builds the Figure 5a configuration: eight nodes, two crossbars
// (A and B, one per network plane), assembled on one backplane. Ports
// 8–15 of each crossbar remain free for the eight asynchronous dual-links
// to other cabinets.
func Cluster8() *Topology {
	t := New("cluster8", 8)
	a := t.AddCrossbar("A")
	b := t.AddCrossbar("B")
	for i := 0; i < 8; i++ {
		mustConnect(t, i, 0, a, i, false)
		mustConnect(t, i, 1, b, i, false)
	}
	return t
}

// System256 builds the Figure 5b configuration: 256 processors as 128
// two-way nodes in 16 clusters. Each cluster is a Cluster8 backplane; its
// eight free ports per plane fan out over asynchronous links to a central
// stage of eight 16×16 crossbars per plane (one link from every cluster
// to every central crossbar). Any two nodes connect through at most three
// crossbars, and every line of the figure is a duplicated link pair
// carrying 240 Mbyte/s in total.
func System256() *Topology {
	const clusters = 16
	t := New("system256", clusters*8)
	clusterA := make([]int, clusters)
	clusterB := make([]int, clusters)
	for c := 0; c < clusters; c++ {
		clusterA[c] = t.AddCrossbar(fmt.Sprintf("A%d", c))
		clusterB[c] = t.AddCrossbar(fmt.Sprintf("B%d", c))
		for i := 0; i < 8; i++ {
			node := c*8 + i
			mustConnect(t, node, 0, clusterA[c], i, false)
			mustConnect(t, node, 1, clusterB[c], i, false)
		}
	}
	for j := 0; j < 8; j++ {
		ca := t.AddCrossbar(fmt.Sprintf("CA%d", j))
		cb := t.AddCrossbar(fmt.Sprintf("CB%d", j))
		for c := 0; c < clusters; c++ {
			mustConnect(t, clusterA[c], 8+j, ca, c, true)
			mustConnect(t, clusterB[c], 8+j, cb, c, true)
		}
	}
	return t
}

func mustConnect(t *Topology, devA, portA, devB, portB int, async bool) {
	if err := t.Connect(devA, portA, devB, portB, async); err != nil {
		panic(err)
	}
}
