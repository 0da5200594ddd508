package powermanna_test

import (
	"fmt"

	"powermanna"
)

// The 256-processor system of Figure 5b connects any two of its 128
// nodes through at most three crossbars.
func Example() {
	max, err := powermanna.System256().MaxCrossbars()
	if err != nil {
		panic(err)
	}
	fmt.Println(max)
	// Output: 3
}

// The paper's communication headline: 8 bytes cross the cluster in
// 2.75 µs, against 6.4 µs for BIP and 9.2 µs for FM on Myrinet.
func Example_latency() {
	pm := powermanna.NewPowerMANNAComm()
	fmt.Println(pm.OneWayLatency(8))
	fmt.Println(powermanna.BIP().OneWayLatency(8))
	fmt.Println(powermanna.FM().OneWayLatency(8))
	// Output:
	// 2.79us
	// 6.404us
	// 9.194us
}

// MatMult on both MPC620 processors of a PowerMANNA node: the switched
// fabric gives essentially perfect dual-processor scaling (Figure 8).
func Example_matmult() {
	nd := powermanna.NewNode(powermanna.PowerMANNA())
	one := powermanna.RunMatMult(nd, 65, powermanna.Transposed, 1)
	two := powermanna.RunMatMult(nd, 65, powermanna.Transposed, 2)
	fmt.Printf("speedup %.1f\n", one.Time.Seconds()/two.Time.Seconds())
	// Output: speedup 1.9
}

// An EARTH fiber tree computes Fibonacci across the eight-node cluster.
func Example_earth() {
	s := powermanna.NewEarth(powermanna.Cluster8(), powermanna.DefaultEarthParams())
	v, _, _ := powermanna.RunEarthFib(s, 12)
	fmt.Println(v)
	// Output: 144
}

// A split-phase remote load: node 0 fetches a word node 3 holds
// (GET_SYNC), and the continuation fiber stores it locally once the
// reply's token has decremented its sync slot. Fibers measure the
// round trip on their fiber-local clocks.
func Example_earthGetSync() {
	s := powermanna.NewEarth(powermanna.Cluster8(), powermanna.DefaultEarthParams())
	s.SetMem(3, 500, 777)
	var issued powermanna.Time
	store := s.Register(func(ctx *powermanna.EarthCtx, args []int64) {
		buf := uint64(args[0])
		ctx.Write(600, ctx.Read(buf))
		fmt.Println("round trip", ctx.Now()-issued)
	})
	load := s.Register(func(ctx *powermanna.EarthCtx, args []int64) {
		buf := ctx.AllocBuf()
		slot := ctx.SyncSlot(1, store, int64(buf))
		issued = ctx.Now()
		ctx.GetSync(3, 500, buf, slot)
	})
	s.Invoke(0, load)
	s.Run()
	fmt.Println(s.Mem(0, 600))
	// Output:
	// round trip 2.629us
	// 777
}

// Every rank of the eight-node cluster contributes its rank number;
// Gather collects the vectors at rank 0 in rank order, and a barrier
// then holds every rank until all have arrived.
func Example_worldGather() {
	w, err := powermanna.NewWorld(powermanna.Cluster8(), 1)
	if err != nil {
		panic(err)
	}
	err = w.Run(func(r *powermanna.Rank) error {
		all, err := r.Gather([]float64{float64(r.Rank())}, 0)
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			fmt.Println(all, "gathered by", r.Now())
		}
		return r.Barrier(0)
	})
	if err != nil {
		panic(err)
	}
	// Output: [[0] [1] [2] [3] [4] [5] [6] [7]] gathered by 10.02us
}
