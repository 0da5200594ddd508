// AllReduce on the 256-processor system: the message-passing layer of
// Section 4 running over the full Figure 5b interconnect. 128 ranks sum
// their vectors through binomial trees; the collective's critical path is
// log₂(128) = 7 small-message latencies each way, every one of them under
// the paper's 4 µs bound even across three crossbars and the asynchronous
// inter-cabinet links.
package main

import (
	"fmt"

	"powermanna"
)

func main() {
	for _, build := range []func() *powermanna.Topology{
		powermanna.Cluster8,
		powermanna.System256,
	} {
		t := build()
		w, err := powermanna.NewWorld(t, 1)
		if err != nil {
			panic(err)
		}
		p := w.Ranks()

		var sum []float64
		err = w.Run(func(r *powermanna.Rank) error {
			got, err := r.AllReduce([]float64{float64(r.Rank() + 1), 1}, 1)
			if r.Rank() == 0 {
				sum = got
			}
			return err
		})
		if err != nil {
			panic(err)
		}
		msgs, bytes := w.Stats()
		fmt.Printf("%-10s %3d ranks: sum=%6.0f count=%3.0f  depth=%d  time=%v  (%d msgs, %d payload bytes)\n",
			t.Name(), p, sum[0], sum[1], powermanna.CollectiveDepth(p), w.MaxTime(), msgs, bytes)
	}

	fmt.Println("\n(128-rank collectives ride the duplicated crossbar hierarchy;")
	fmt.Println(" the binomial tree's 7 levels dominate, each a sub-4us small message)")
}
