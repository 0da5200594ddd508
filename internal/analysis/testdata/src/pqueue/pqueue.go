// Package pqueue exercises the schedule-site matcher's parallel-engine
// cases: callbacks scheduled through the sim.Engine interface, through
// the sim.Queue a scheduler embeds, through a psim shard, and a worker
// loop promoted to handler root by directive. The lookalike type at the
// bottom must stay invisible.
package pqueue

import (
	"powermanna/internal/psim"
	"powermanna/internal/sim"
)

// viaInterface schedules through the sim.Engine interface — the callback
// must root even though the static type is not *sim.Scheduler.
func viaInterface(eng sim.Engine) {
	eng.At(0, ifaceHandler)
}

func ifaceHandler() {}

// viaQueue pushes straight onto the queue beneath the scheduler's At.
func viaQueue(s *sim.Scheduler) {
	s.Push(0, queueHandler)
}

func queueHandler() {}

// viaShard schedules on a psim shard.
func viaShard(e *psim.Engine) {
	e.Shard(0).After(sim.Time(5), shardHandler)
}

func shardHandler() {}

// drain is the directive case: never passed to At/After, yet it runs
// handler bodies directly and must be audited as a root.
//
//pmlint:root
func drain() {
	ifaceHandler()
}

// lookalike has an At method with the right shape but is not an event
// queue; its callback must not root.
type lookalike struct{}

func (lookalike) At(t sim.Time, fn func()) {}

func viaLookalike() {
	lookalike{}.At(0, notAHandler)
}

func notAHandler() {}
