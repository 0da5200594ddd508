// Package mpl is the user-level message-passing layer of the
// reproduction — the role MPI plays on the real machine (Section 4 of
// the paper: "an optimized implementation of MPI offers user-level
// communication, which reduces the communication overhead
// significantly"). It runs entirely over the simulated interconnect of
// internal/netsim: one rank per node, PIO-driven sends with the
// calibrated PowerMANNA software overheads, wormhole transit through the
// crossbar hierarchy, and polling receives.
//
// A program is a PWorld: one SPMD function run once per rank, each rank
// a coroutine driven by the psim shard that owns its node. Sends go
// through the split-phase failover protocol of the node-partitioned
// datapath (netsim.PartNetwork), so the layer inherits the driver-level
// failover: on a faulted plane A a message retries over plane B instead
// of silently vanishing. Per Section 4's first implementation, user
// traffic prefers plane A.
//
// Like every model in this repository, the layer is functional as well
// as timed: messages carry real payload bytes, collectives combine real
// vectors, and the tests verify both the arithmetic and the timing
// invariants (causality, determinism, logarithmic collective depth).
package mpl

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
)

// MetricRecvWait is the receive-side wait histogram: how long a rank
// sits polling between being ready to receive and the message's last
// byte arriving at its NI — zero when the message was already in the
// FIFO. Together with the netsim send-path instruments this completes
// the machine profile in pmfault --metrics: the send side shows what
// the network did to a message, this shows what the receiver felt.
const MetricRecvWait = "mpl.recv.wait"

// MetricRecvWaitRankPrefix prefixes the per-rank receive-wait views:
// the same observations as MetricRecvWait, broken out one histogram per
// rank as mpl.recv.wait.rNNN so a skewed receiver (one rank starved by
// a faulted plane while the rest idle) is visible instead of averaged
// away in the machine-wide histogram. Off, like every instrument, when
// no registry is attached.
const MetricRecvWaitRankPrefix = MetricRecvWait + ".r"

// recvWaitRankName is rank r's labelled histogram name, zero-padded to
// three digits so the name-sorted dump lists ranks numerically.
func recvWaitRankName(rank int) string {
	return fmt.Sprintf("%s%03d", MetricRecvWaitRankPrefix, rank)
}

// recvWaitBuckets shares the send-latency geometry (powers of two from
// 1 µs) so the two ends of the profile read side by side.
func recvWaitBuckets() []sim.Time {
	return metrics.TimeBuckets(sim.Microsecond, 2, 10)
}
