package clock

import "sync"

// Ticker fires a callback at a fixed period on any Clock. It is the
// building block for periodic metadata updates.
type Ticker struct {
	clock  Clock
	period Duration
	fn     func(now Time)
	// tickFn is the t.tick method value, bound once so rescheduling
	// does not allocate a fresh closure on every tick.
	tickFn func(now Time)
	// reuser is non-nil when the clock can recycle the ticker's fired
	// event, sparing the per-tick Event allocation as well.
	reuser eventReuser

	mu      sync.Mutex
	stopped bool
	next    *Event
}

// NewTicker schedules fn every period units, first firing one period
// from now. Stop the ticker to release it. period must be positive.
func NewTicker(c Clock, period Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("clock: ticker period must be positive")
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.tickFn = t.tick
	t.reuser, _ = c.(eventReuser)
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	if t.reuser != nil {
		t.next = t.reuser.reuseAfter(t.next, t.period, t.tickFn)
	} else {
		t.next = t.clock.After(t.period, t.tickFn)
	}
}

func (t *Ticker) tick(now Time) {
	t.mu.Lock()
	stopped := t.stopped
	t.mu.Unlock()
	if stopped {
		return
	}
	t.fn(now)
	t.schedule()
}

// Stop cancels future ticks. It is idempotent.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.stopped = true
	if t.next != nil {
		t.clock.Cancel(t.next)
		t.next = nil
	}
}
