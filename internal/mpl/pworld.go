//go:build go1.23

// PWorld: the message-passing layer over the node-partitioned datapath.
//
// PWorld charges the calibrated software overheads (comm.PMParams: PIO
// lines, poll cycles, setup cycles) on per-rank virtual clocks and runs
// each rank as its own coroutine over a netsim.PartNetwork: sends go
// through the split-phase failover protocol (netsim.SendAsync),
// receives block on real arrival events, and rank execution is driven
// by the psim shard that owns the rank's node. Ranks run genuinely
// concurrently: no global program order exists, so the same SPMD
// program produces the same history at every aligned shard count.
//
// Scheduling discipline — rank code runs only nested inside a shard
// event. Each rank body is an iter.Pull coroutine: the shard resumes it
// (next) from inside an event, the rank runs until it must wait for
// the network, then yields straight back to that event. The switch is
// a direct coroutine transfer on the shard's own goroutine, with no
// scheduler or channel in between, so rank code has exclusive access
// to everything its shard owns and every rank step is anchored to a
// deterministic event. Resumes come from whichever goroutine drives
// the shard (the engine's caller for shard 0 and in serial runs, a
// worker goroutine otherwise), not always the one that started the
// coroutine, but never overlap; iter.Pull's race annotations order them
// for the race detector. A rank that is still parked when the
// engine drains is deadlocked (a receive nothing will match); Run
// stops its coroutine, which unwinds the rank body, and reports which
// ranks were stuck. A panic in a rank body propagates through next to
// Run's caller.
//
// Message records — each message is one record with one owner at a
// time: the sending rank fills it in Send (taken from its own free
// list, or new), netsim carries the pointer through the split-phase
// protocol and the psim mailboxes, the delivery hook queues it on the
// receiving rank, and Recv hands out its payload and puts the record
// on the receiving rank's free list at that rank's next Recv. A free
// list is touched only by its rank's shard and a record crosses shards
// only inside a mailbox payload. Sends and receives balance over a
// halo exchange, so a steady-state send/recv allocates nothing. Each
// rank's first records, their first payload bytes and its queue and
// free-list capacity are carved from world-owned slabs at build, so a
// fresh world's first messages allocate nothing either. The price is
// Recv's contract: the returned slice is valid until the rank's next
// Recv, as with bufio.Scanner.Bytes.
//
// The build constraint raises this file's language version to go1.23,
// the first with iter.Pull, while the module's go line stays at go1.22.
//
// Two model consequences of having no global send order: a rank's
// virtual clock may lag its shard's event clock (the verdict that frees
// the sender arrives at network time), so SendAsync clamps entry times
// forward — consecutive sends never enter the network before the
// previous verdict; and there is no background OS stream (the lazy
// injector advances on the global send order).
package mpl

import (
	"fmt"
	"iter"

	"powermanna/internal/comm"
	"powermanna/internal/link"
	"powermanna/internal/metrics"
	"powermanna/internal/netsim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// prState says what a parked rank is waiting for, so the shard-side
// hooks know whether an event resolves the wait.
type prState int

const (
	// prRun: the rank is runnable (executing, or not waiting on the
	// network). Hooks never wake a prRun rank.
	prRun prState = iota
	// prSendWait: parked in Send until the in-flight message's verdict.
	prSendWait
	// prRecvWait: parked in Recv until any message arrives; the rank
	// re-scans its queue on wake.
	prRecvWait
)

// pcargo is one mpl message record: the sender fills it, it crosses
// the network as SendAsync's payload (a pointer, so nothing is boxed)
// and waits in the receiver's queue. Records are recycled per rank, so
// payload keeps its capacity from one message to the next.
type pcargo struct {
	src, tag int
	payload  []byte
	arrival  sim.Time
}

// Per-rank capacities carved from the world's slabs: the records a
// halo exchange or a binomial-tree collective keeps in flight, the
// first payload bytes of each (a halo value or a two-element vector),
// and the queue and free-list lengths those workloads reach on
// System256. A rank that outgrows one grows it alone.
const (
	slabRecords = 3
	slabPayload = 16
	slabQueue   = 4
	slabFree    = 4
)

// PWorld is one SPMD program run over a partitioned network: one rank
// per node, each a coroutine resumed by its node's shard.
type PWorld struct {
	pn     *netsim.PartNetwork
	params comm.PMParams
	ranks  []PRank
	// sends and bytes are per-rank so each is written only from its
	// rank's shard; Stats sums them after the engine has drained.
	sends []int64
	bytes []int64
	ran   bool
}

// PRank is one rank's handle: the argument of the SPMD function. All
// methods must be called from that function (the rank's coroutine).
type PRank struct {
	w    *PWorld
	rank int
	// clock is the rank's virtual CPU time, advanced only by its own
	// sends, receives and computation.
	clock sim.Time
	queue []*pcargo
	// free holds recycled records for Send; held is the record whose
	// payload the last Recv returned, freed by the next Recv.
	free []*pcargo
	held *pcargo
	// vecBuf is the collectives' encoding scratch; vec holds the result
	// of the rank's last AllReduce or non-root Bcast.
	vecBuf []byte
	vec    []float64
	state  prState
	// next, yield and stop are the rank coroutine's handles: the shard
	// side resumes the rank with next, the rank parks with yield, and
	// stop aborts a parked rank.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	done  bool
	err   error
	// del and got receive the in-flight send's verdict through onVerdict,
	// bound once as verdictFn: a rank has at most one send in flight.
	del       netsim.Delivery
	got       bool
	verdictFn func(netsim.Delivery)
	// recvWait is the rank's shard-local view of MetricRecvWait;
	// rankWait the rank's own labelled histogram in the same shard
	// registry (both folded into the user's registry after the run).
	recvWait *metrics.Histogram
	rankWait *metrics.Histogram
}

// NewPWorld builds a partitioned world over the topology with the
// default failover protocol, one rank per node, across the given
// number of psim shards.
func NewPWorld(t *topo.Topology, shards int) (*PWorld, error) {
	pn, err := netsim.NewPartitioned(t, shards, netsim.DefaultFailover())
	if err != nil {
		return nil, err
	}
	n := t.Nodes()
	w := &PWorld{
		pn:     pn,
		params: comm.DefaultPMParams(),
		sends:  make([]int64, n),
		bytes:  make([]int64, n),
		ranks:  make([]PRank, n),
	}
	recs := make([]pcargo, n*slabRecords)
	payloads := make([]byte, len(recs)*slabPayload)
	lists := make([]*pcargo, n*(slabQueue+slabFree))
	for i := range w.ranks {
		r := &w.ranks[i]
		r.w, r.rank = w, i
		r.verdictFn = r.onVerdict
		r.queue = lists[:0:slabQueue]
		r.free = lists[slabQueue : slabQueue : slabQueue+slabFree]
		lists = lists[slabQueue+slabFree:]
		for j := range slabRecords {
			c := &recs[i*slabRecords+j]
			c.payload = payloads[:0:slabPayload]
			payloads = payloads[slabPayload:]
			r.free = append(r.free, c)
		}
	}
	pn.OnDeliver(func(_, dst int, payload any, _, last sim.Time) {
		c := payload.(*pcargo)
		c.arrival = last
		r := &w.ranks[dst]
		r.queue = append(r.queue, c)
		if r.state == prRecvWait {
			r.state = prRun
			r.wake()
		}
	})
	return w, nil
}

// PartNetwork exposes the partitioned datapath (for SetSerial and the
// shard accessors).
func (w *PWorld) PartNetwork() *netsim.PartNetwork { return w.pn }

// Network exposes the underlying network for fault injection. Only
// pre-run faults (wire cuts and corruption windows) are sound: the
// wire state is immutable during the run and read from many shards.
func (w *PWorld) Network() *netsim.Network { return w.pn.Network() }

// SetMetrics attaches the world to a registry: the partitioned
// network's per-shard instruments plus the receive-wait view, observed
// into each rank's own shard registry and folded after the run.
func (w *PWorld) SetMetrics(m *metrics.Registry) {
	w.pn.SetMetrics(m)
	for i := range w.ranks {
		r := &w.ranks[i]
		reg := w.pn.ShardRegistry(w.pn.ShardOf(r.rank))
		r.recvWait = reg.TimeHistogram(MetricRecvWait, recvWaitBuckets())
		r.rankWait = reg.TimeHistogram(recvWaitRankName(r.rank), recvWaitBuckets())
	}
}

// SetRecorder attaches a trace recorder (per-shard recorders, merged
// canonically after the run).
func (w *PWorld) SetRecorder(r *trace.Recorder) { w.pn.SetRecorder(r) }

// Ranks reports the number of ranks.
func (w *PWorld) Ranks() int { return len(w.ranks) }

// MaxTime reports the latest rank clock (the makespan). Valid after
// Run has returned.
func (w *PWorld) MaxTime() sim.Time {
	var max sim.Time
	for i := range w.ranks {
		max = sim.Max(max, w.ranks[i].clock)
	}
	return max
}

// Stats reports message traffic. Valid after Run has returned.
func (w *PWorld) Stats() (messages, payloadBytes int64) {
	var m, b int64
	for i := range w.sends {
		m += w.sends[i]
		b += w.bytes[i]
	}
	return m, b
}

func (w *PWorld) cycles(n int64) sim.Time { return w.params.CPUClock.Cycles(n) }

// Run executes fn once per rank, each as its own coroutine, and drives
// them through the partitioned network until every rank returns or the
// engine drains with ranks still parked (a communication deadlock —
// reported as an error naming the stuck ranks, unless a rank returned
// an error, which is reported instead). A panic in a rank body reaches
// Run's caller. No rank coroutine outlives Run. Run may be called once
// per world.
func (w *PWorld) Run(fn func(r *PRank) error) error {
	if w.ran {
		return fmt.Errorf("mpl: PWorld.Run called twice")
	}
	w.ran = true
	for i := range w.ranks {
		r := &w.ranks[i]
		r.next, r.stop = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				if p := recover(); p != nil && p != (abortRank{}) {
					panic(p)
				}
			}()
			r.yield = yield
			r.err = fn(r)
			r.done = true
		})
		w.pn.Shard(w.pn.ShardOf(r.rank)).At(0, func() { r.wake() })
	}
	// Stopping every rank, on return or on a panic unwinding through
	// Run, aborts the parked ones and ends every coroutine.
	defer func() {
		for i := range w.ranks {
			w.ranks[i].stop()
		}
	}()
	w.pn.Run()
	// A rank error comes first: a rank that returned early usually
	// strands the partners still waiting on it.
	var stuck []int
	for i := range w.ranks {
		r := &w.ranks[i]
		if r.err != nil {
			return fmt.Errorf("mpl: rank %d: %w", r.rank, r.err)
		}
		if !r.done {
			stuck = append(stuck, r.rank)
		}
	}
	if len(stuck) > 0 {
		return fmt.Errorf("mpl: ranks %v still waiting when the network drained (communication deadlock)", stuck)
	}
	return nil
}

// abortRank is the panic value that unwinds a rank body whose
// coroutine was stopped while parked; the coroutine recovers it.
type abortRank struct{}

// wake resumes the rank coroutine until it parks again or finishes.
// Must run inside an event on the rank's shard.
func (r *PRank) wake() { r.next() }

// park suspends the rank coroutine until a hook wakes it. A stopped
// coroutine (engine drained with the rank still waiting) unwinds the
// rank body.
func (r *PRank) park() {
	if !r.yield(struct{}{}) {
		panic(abortRank{})
	}
}

// Rank reports this rank's index.
func (r *PRank) Rank() int { return r.rank }

// Ranks reports the world size.
func (r *PRank) Ranks() int { return len(r.w.ranks) }

// Now reports the rank's virtual CPU time.
func (r *PRank) Now() sim.Time { return r.clock }

// Compute advances the rank's clock by local computation time.
func (r *PRank) Compute(d sim.Time) { r.clock += d }

// Send posts payload to rank dst with a tag, paying the user-level
// send path (setup cycles, then PIO at line granularity, overlapped
// with the link once the FIFO pipeline is full — eager protocol, the
// paper's NI has no rendezvous). The rank parks until the failover
// protocol renders the message's verdict; a message lost on both
// planes is an error.
func (r *PRank) Send(dst, tag int, payload []byte) error {
	w := r.w
	if dst == r.rank {
		return fmt.Errorf("mpl: self-send from rank %d", r.rank)
	}
	start := r.clock + w.cycles(w.params.SendSetupCycles)
	start += w.params.PIOWriteLine
	var c *pcargo
	if n := len(r.free); n > 0 {
		c, r.free = r.free[n-1], r.free[:n-1]
	} else {
		c = new(pcargo)
	}
	c.src, c.tag = r.rank, tag
	c.payload = append(c.payload[:0], payload...)
	r.got = false
	if err := w.pn.SendAsync(r.rank, dst, len(payload), c, start, r.verdictFn); err != nil {
		return err
	}
	if !r.got {
		// The verdict is pending in the network; onVerdict runs on this
		// shard and resumes us.
		r.state = prSendWait
		r.park()
	}
	del := r.del
	if del.Failed {
		return fmt.Errorf("mpl: message %d->%d lost on both planes", r.rank, dst)
	}
	// Sender occupancy: beyond the FIFO, the CPU feeds lines as the link
	// drains them and is free once the last FIFO's worth remains.
	tail := len(payload) - w.params.FIFOBytes
	senderDone := start
	if tail > 0 {
		senderDone = del.Done - sim.Time(w.params.FIFOBytes)*link.BytePeriod
		if senderDone < start {
			senderDone = start
		}
	} else {
		lines := (len(payload) + 63) / 64
		senderDone = start + sim.Time(lines)*w.params.PIOWriteLine
	}
	r.clock = senderDone
	w.sends[r.rank]++
	w.bytes[r.rank] += int64(len(payload))
	return nil
}

// onVerdict receives the in-flight send's outcome on the rank's shard,
// waking the rank if Send parked for it.
func (r *PRank) onVerdict(d netsim.Delivery) {
	r.del, r.got = d, true
	if r.state == prSendWait {
		r.state = prRun
		r.wake()
	}
}

// Recv blocks the rank until a message from src with the tag has fully
// arrived, drains it from the receive FIFO and returns the payload.
// Matching is FIFO within (src, tag), over the deterministic delivery
// order of the partitioned network. The returned slice is valid until
// this rank's next Recv, which recycles its record; the rank's own
// Sends leave it intact, so it may be forwarded as is.
func (r *PRank) Recv(src, tag int) ([]byte, error) {
	w := r.w
	if r.held != nil {
		r.free = append(r.free, r.held)
		r.held = nil
	}
	for {
		for i, m := range r.queue {
			if m.src != src || m.tag != tag {
				continue
			}
			// Remove in place: the queue's array is the rank's own, so
			// the hook's next append reuses it instead of reallocating.
			last := len(r.queue) - 1
			copy(r.queue[i:], r.queue[i+1:])
			r.queue[last] = nil
			r.queue = r.queue[:last]
			r.held = m
			t := r.clock + w.cycles(w.params.PollCycles)
			var wait sim.Time
			if m.arrival > t {
				wait = m.arrival - t
				t = m.arrival + w.cycles(w.params.PollCycles)/2
			}
			r.recvWait.ObserveTime(wait)
			r.rankWait.ObserveTime(wait)
			lines := (len(m.payload) + 63) / 64
			if lines < 1 {
				lines = 1
			}
			t += sim.Time(lines) * w.params.PIOReadLine
			t += w.cycles(w.params.RecvReturnCycles)
			r.clock = t
			return m.payload, nil
		}
		r.state = prRecvWait
		r.park()
	}
}
