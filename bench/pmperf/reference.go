package main

import (
	"sort"
	"time"
)

// The hosts this benchmark runs on change speed by 30% and more over
// minutes, as neighbours on the physical machine come and go, and every
// wall time moves with them. The parent therefore times a fixed
// reference load, independent of the simulator, before it launches each
// worker, and scales each worker's wall times by refNominal over the
// median reference time of the launches around it (setScales): a run
// is reported in seconds of a host running the reference load at its
// nominal speed. A change to the simulator moves the scaled times
// exactly as it moves wall times; a change in host speed mostly
// cancels. The parent, not the worker, runs the load so that it shows
// in no worker's memory.
//
// One reference time is itself noisy (10-20% between quartiles), hence
// the median. A run as long as a whole measurement (paper-figs) also
// pauses between its units to time the load, leaving the pauses out of
// its time and allocation, and is scaled by the median of its own
// pauses: over 16 paper-figs runs that took the spread of run times
// from 12% (raw) to 6%, where scaling by one time after the run made it
// 23%.

// refNominal is the reference time scaled figures are expressed
// against, in seconds. The load takes 65-100 ms on the host of the
// baseline ledger (2 vCPUs, Intel Xeon, Go 1.24). Changing it rescales
// every time, so it stays fixed.
const refNominal = 0.1

// refNode is one node of the reference load's trees.
type refNode struct {
	left, right *refNode
	key         uint64
}

// refSink keeps the compiler from discarding the reference load.
var refSink int

func refTree(depth int, x *uint64) *refNode {
	*x = *x*6364136223846793005 + 1442695040888963407
	n := &refNode{key: *x >> 20}
	if depth > 0 {
		n.left, n.right = refTree(depth-1, x), refTree(depth-1, x)
	}
	return n
}

func refWalk(n *refNode, counts map[uint64]int) {
	for ; n != nil; n = n.right {
		counts[n.key%4096]++
		refWalk(n.left, counts)
	}
}

// referenceSeconds times the reference load: allocating, walking and
// counting binary trees, then sorting, a mix of the allocation, pointer
// chasing, map and comparison work the simulator does.
func referenceSeconds() float64 {
	start := time.Now()
	x := uint64(1)
	counts := map[uint64]int{}
	for i := 0; i < 16; i++ {
		refWalk(refTree(14, &x), counts)
	}
	keys := make([]uint64, 1<<18)
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407
		keys[i] = x >> 7
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	refSink += len(counts) + int(keys[0]&1)
	return time.Since(start).Seconds()
}
