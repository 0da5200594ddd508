package sim

// Engine is the surface a simulation model schedules against: the
// sequential Scheduler and each shard of the parallel engine in
// internal/psim satisfy it, both running on the one Queue. Models
// written against Engine instead of *Scheduler run unchanged on either.
// The contract is a total order: events fire in ascending time, and
// events at equal times fire in scheduling order. That order is what
// makes every simulation in this repository a pure function of its
// configuration, so an Engine implementation that reorders equal-time
// events is broken even if no test catches it directly.
type Engine interface {
	// Now reports the current simulated time.
	Now() Time
	// At schedules fn at absolute simulated time t; scheduling in the
	// past is a model bug and panics.
	At(t Time, fn func())
	// Run dispatches events until the queue is empty.
	Run()
}

// The sequential scheduler is the reference Engine implementation.
var _ Engine = (*Scheduler)(nil)
