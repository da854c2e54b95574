package clock

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
)

// Virtual is a deterministic simulated clock. Time only moves when the
// owner calls Advance, AdvanceTo, or Run*; scheduled events fire in
// timestamp order (ties broken by scheduling order) on the goroutine
// that advances the clock.
//
// Virtual is safe for concurrent use, but events fire synchronously
// during Advance, so callbacks must not call Advance themselves (they
// may Schedule freely, including for the current instant).
type Virtual struct {
	mu sync.Mutex
	// now is written only under mu but read lock-free by Now(): the
	// update pipeline consults the clock position on every pooled
	// publish (lag clamping), so Now must not contend with Advance.
	now       atomic.Int64
	seq       uint64
	queue     eventQueue
	advancing bool
}

// NewVirtual returns a virtual clock positioned at time 0.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current simulated time.
func (v *Virtual) Now() Time { return Time(v.now.Load()) }

// Schedule implements Clock. Events scheduled for the past fire at the
// next advancement.
func (v *Virtual) Schedule(t Time, fn func(Time)) *Event {
	v.mu.Lock()
	defer v.mu.Unlock()
	e := &Event{when: t, seq: v.seq, fn: fn}
	v.seq++
	heap.Push(&v.queue, e)
	return e
}

// After implements Clock.
func (v *Virtual) After(d Duration, fn func(Time)) *Event {
	v.mu.Lock()
	defer v.mu.Unlock()
	e := &Event{when: v.Now().Add(d), seq: v.seq, fn: fn}
	v.seq++
	heap.Push(&v.queue, e)
	return e
}

// reuseAfter implements eventReuser: it re-arms e to fire d units from
// now, recycling its allocation. A nil, still-pending, or canceled e is
// replaced by a fresh event (reviving a canceled handle would make a
// stale Cancel able to kill the new incarnation).
func (v *Virtual) reuseAfter(e *Event, d Duration, fn func(Time)) *Event {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e == nil || e.index >= 0 || e.canceled {
		e = &Event{}
	}
	e.when = v.Now().Add(d)
	e.seq = v.seq
	e.fn = fn
	v.seq++
	heap.Push(&v.queue, e)
	return e
}

// Cancel removes a pending event. It is a no-op if the event already
// fired. It reports whether the event was still pending.
func (v *Virtual) Cancel(e *Event) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e.canceled || e.index < 0 {
		return false
	}
	e.canceled = true
	return true
}

// Advance moves time forward by d, firing all events scheduled in
// (now, now+d] in order. It panics if called re-entrantly from an event
// callback.
func (v *Virtual) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: negative advance %d", d))
	}
	v.AdvanceTo(v.Now().Add(d))
}

// AdvanceTo moves time forward to t, firing all due events in order.
// Advancing to the past is a no-op.
func (v *Virtual) AdvanceTo(t Time) {
	v.mu.Lock()
	if v.advancing {
		v.mu.Unlock()
		panic("clock: re-entrant Advance from event callback")
	}
	v.advancing = true
	for {
		if len(v.queue) == 0 || v.queue[0].when > t {
			break
		}
		e := heap.Pop(&v.queue).(*Event)
		if e.canceled {
			continue
		}
		now := Time(v.now.Load())
		if e.when > now {
			now = e.when
			v.now.Store(int64(now))
		}
		v.mu.Unlock()
		e.fn(now)
		v.mu.Lock()
	}
	if t > Time(v.now.Load()) {
		v.now.Store(int64(t))
	}
	v.advancing = false
	v.mu.Unlock()
}

// PendingEvents returns the number of events not yet fired or canceled.
func (v *Virtual) PendingEvents() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, e := range v.queue {
		if !e.canceled {
			n++
		}
	}
	return n
}

// eventQueue is a min-heap over (when, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}
