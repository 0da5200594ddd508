package sim

// Resource is a single-server busy timeline: the building block for every
// contended hardware unit that the node-level models track analytically
// (bus address phases, data paths, memory banks, execution units).
//
// A Resource answers the question "if a request arrives at time t and needs
// the unit for d, when does it actually start?". It keeps no busy total:
// a model that reports utilization sums the durations it acquires.
// Requests must be presented in non-decreasing arrival order per
// timeline, which the node models guarantee by merging CPU streams by
// local time.
type Resource struct {
	free Time // earliest time the next request can start
}

// Acquire reserves the resource for dur starting no earlier than at,
// returning the actual start time. The wait (start − at) is the queuing
// delay caused by contention.
//
//pmlint:hotpath
func (r *Resource) Acquire(at, dur Time) (start Time) {
	start = Max(at, r.free)
	r.free = start + dur
	return start
}

// FreeAt reports when the resource next becomes free.
func (r *Resource) FreeAt() Time { return r.free }

// Reset clears the timeline.
func (r *Resource) Reset() { *r = Resource{} }

// Pipelined is a resource with distinct occupancy (initiation interval) and
// latency: a new request may start every Interval, but its result is only
// available Latency after start. It models pipelined memory banks and
// pipelined execution units.
type Pipelined struct {
	Interval Time
	Latency  Time
	res      Resource
}

// Acquire reserves an initiation slot at or after at and returns the time
// the result is available.
func (p *Pipelined) Acquire(at Time) (done Time) {
	start := p.res.Acquire(at, p.Interval)
	return start + p.Latency
}

// Reset clears the timeline, keeping the configuration.
func (p *Pipelined) Reset() { p.res.Reset() }
