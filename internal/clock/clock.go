// Package clock provides the time substrate for the stream processing
// system. All components observe time through the Clock interface, and
// every system runs on the deterministic virtual clock: a simulation
// advances it as fast as it can, a live deployment paces it with the
// wall clock (pipes.System.Serve).
//
// Time is measured in abstract, signed 64-bit "time units". The paper's
// figures are expressed in such units (e.g. Figure 4 uses an element
// arrival every 10 time units); when paced by the wall clock one unit
// is one millisecond.
package clock

// Time is a point in time, in abstract time units since an arbitrary
// epoch. Experiments usually start at time 0.
type Time int64

// Duration is a span of time in the same units as Time.
type Duration int64

// Add returns the time d units after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Clock abstracts the flow of time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() Time

	// Schedule arranges for fn to run at time t. If t is not after
	// Now, fn runs at the next clock advancement. The returned Event
	// can cancel the call. fn must not block.
	Schedule(t Time, fn func(now Time)) *Event

	// After arranges for fn to run d units from now.
	After(d Duration, fn func(now Time)) *Event

	// Cancel stops a pending event, reporting whether it had not yet
	// fired.
	Cancel(e *Event) bool
}

// eventReuser is implemented by clocks that can recycle an already
// fired event when rescheduling, so steady tickers do not allocate a
// fresh Event per tick. Callers may only pass events they exclusively
// own (no other handle to e survives).
type eventReuser interface {
	reuseAfter(e *Event, d Duration, fn func(now Time)) *Event
}

// Event is a handle to a scheduled callback.
type Event struct {
	when     Time
	seq      uint64
	fn       func(Time)
	canceled bool
	index    int // heap index; -1 once fired or removed
}
