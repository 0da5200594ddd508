package sim

// Scheduler is a discrete-event simulation loop: a time-ordered queue of
// callbacks and a current simulated time. It is the engine behind the
// communication-system models (links, crossbars, network interfaces); the
// node-level CPU/cache models use the cheaper Resource timelines instead
// and only meet the Scheduler at transaction boundaries.
type Scheduler struct {
	Queue[func()]
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is a model bug and panics.
//
//pmlint:hotpath
func (s *Scheduler) At(t Time, fn func()) { s.Push(t, fn) }

// After schedules fn to run d after the current time.
//
//pmlint:hotpath
func (s *Scheduler) After(d Time, fn func()) { s.Push(s.now+d, fn) }

// Step dispatches the next event, advancing time to it. It reports whether
// an event was dispatched.
//
//pmlint:hotpath
func (s *Scheduler) Step() bool {
	fn, ok := s.Next()
	if ok {
		fn()
	}
	return ok
}

// Run dispatches events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}
