package clock

import "sync"

// Task is a unit of deferred work managed by a Scheduler. A Task is
// armed for at most one deadline at a time; when that deadline is
// reached the scheduler hands it (together with every other task due at
// the same instant) to the dispatch callback. Tasks carry an opaque
// Data pointer so callers can map them back to their own state without
// an extra allocation per fire.
type Task struct {
	// Data is caller-owned and never touched by the scheduler.
	Data any

	bucket   *bucket // bucket the task is currently armed in, nil if idle
	canceled bool
}

// Scheduler is a deadline scheduler that coalesces tasks due at the
// same instant into a single clock event ("bucket"). With N tasks
// sharing a deadline the underlying clock sees one heap push per
// boundary instead of N, and the dispatch callback receives all N tasks
// in one call, in the order they were armed.
//
// Arm order is the tie-break contract: tasks armed earlier for a given
// deadline are delivered earlier in the dispatch slice, and buckets
// occupy the clock's event queue in creation order, so same-instant
// ordering matches what per-task Schedule calls issued at the same
// moments would have produced.
//
// Scheduler is safe for concurrent use. The dispatch callback runs on
// the clock's callback goroutine (the advancing goroutine for Virtual)
// with no scheduler lock held; it may arm,
// re-arm, and cancel tasks freely. The slice passed to dispatch is
// reused and must not be retained after the call returns.
type Scheduler struct {
	c        Clock
	reuser   eventReuser // non-nil when c can recycle fired events
	dispatch func(now Time, due []*Task)

	mu      sync.Mutex
	buckets map[Time]*bucket
	free    *bucket // single-slot recycle list for bucket+slice reuse
}

// bucket collects every task armed for one deadline behind one clock
// event.
type bucket struct {
	s     *Scheduler
	when  Time
	tasks []*Task
	ev    *Event
	// fireFn is the bound b.fire method value, created once per bucket
	// lifetime so (re)scheduling does not allocate a closure.
	fireFn func(now Time)
	next   *bucket // free-list link
}

// NewScheduler returns a scheduler over c that delivers due tasks to
// dispatch. dispatch must be non-nil.
func NewScheduler(c Clock, dispatch func(now Time, due []*Task)) *Scheduler {
	if dispatch == nil {
		panic("clock: scheduler dispatch must be non-nil")
	}
	s := &Scheduler{c: c, dispatch: dispatch, buckets: make(map[Time]*bucket)}
	s.reuser, _ = c.(eventReuser)
	return s
}

// At arms t to fire at deadline when. The task joins the bucket for
// that instant, creating it (and its single clock event) if this is the
// first task due then. It panics if t is already armed — a task has at
// most one pending deadline — and is a no-op for canceled tasks, so a
// dispatch loop may blindly re-arm tasks that a concurrent Cancel is
// retiring.
func (s *Scheduler) At(when Time, t *Task) {
	s.mu.Lock()
	if t.canceled {
		s.mu.Unlock()
		return
	}
	if t.bucket != nil {
		s.mu.Unlock()
		panic("clock: task armed twice")
	}
	b := s.buckets[when]
	if b == nil {
		b = s.newBucketLocked(when)
		s.buckets[when] = b
		// One event per bucket regardless of how many tasks join it.
		if s.reuser != nil {
			b.ev = s.reuser.reuseAfter(b.ev, when.Sub(s.c.Now()), b.fireFn)
		} else {
			b.ev = s.c.Schedule(when, b.fireFn)
		}
	}
	b.tasks = append(b.tasks, t)
	t.bucket = b
	s.mu.Unlock()
}

// newBucketLocked returns a bucket for deadline when, recycling a
// previously fired one (including its task-slice backing array and its
// clock event, when the clock supports reuse) if available.
func (s *Scheduler) newBucketLocked(when Time) *bucket {
	b := s.free
	if b != nil {
		s.free = b.next
		b.next = nil
		b.when = when
		return b
	}
	b = &bucket{s: s, when: when}
	b.fireFn = b.fire
	return b
}

// Cancel permanently retires t: if armed it is withdrawn from its
// bucket, and any future At is a no-op. It reports whether the task was
// armed. Scheduling the same logical work again requires a new Task.
func (s *Scheduler) Cancel(t *Task) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.canceled {
		return false
	}
	t.canceled = true
	b := t.bucket
	if b == nil {
		return false
	}
	t.bucket = nil
	for i, bt := range b.tasks {
		if bt == t {
			copy(b.tasks[i:], b.tasks[i+1:])
			b.tasks[len(b.tasks)-1] = nil
			b.tasks = b.tasks[:len(b.tasks)-1]
			break
		}
	}
	if len(b.tasks) == 0 && s.buckets[b.when] == b {
		if s.c.Cancel(b.ev) {
			delete(s.buckets, b.when)
			// The canceled event cannot be recycled (reviving a canceled
			// handle would let a stale Cancel kill the new incarnation).
			b.ev = nil
			s.recycleLocked(b)
		}
		// When the clock reports the event as already fired, b.fire is
		// in flight (blocked on s.mu). The bucket stays in the map and
		// stays owned by fire, which detaches and recycles it exactly
		// once; recycling here too would let a concurrent At hand the
		// same bucket to a new deadline that fire would then dispatch
		// at the wrong instant.
	}
	return true
}

// fire is the bucket's clock callback: detach the bucket, hand its
// tasks to dispatch, then recycle the bucket and task slice.
func (b *bucket) fire(now Time) {
	s := b.s
	s.mu.Lock()
	if s.buckets[b.when] == b {
		delete(s.buckets, b.when)
	}
	due := b.tasks
	for _, t := range due {
		t.bucket = nil
	}
	b.tasks = nil
	s.mu.Unlock()

	if len(due) > 0 {
		s.dispatch(now, due)
	}

	s.mu.Lock()
	for i := range due {
		due[i] = nil
	}
	b.tasks = due[:0]
	s.recycleLocked(b)
	s.mu.Unlock()
}

// recycleLocked returns b to the free list for reuse by a future
// bucket.
func (s *Scheduler) recycleLocked(b *bucket) {
	b.next = s.free
	s.free = b
}

// PendingBuckets returns the number of distinct deadlines currently
// armed — i.e. the number of live clock events the scheduler owns.
func (s *Scheduler) PendingBuckets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buckets)
}
