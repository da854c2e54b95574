package core

import (
	"sync"

	"repro/internal/ring"
)

// Updater executes the periodic update tasks of the metadata framework
// (Section 4.3). The inline updater runs tasks synchronously on the
// clock goroutine, which keeps virtual-clock experiments fully
// deterministic and "is sufficient for small query graphs". The pool
// updater distributes tasks over a small pool of worker goroutines for
// large graphs.
type Updater interface {
	// Submit schedules fn for execution.
	Submit(fn func())
	// WaitIdle blocks until every submitted task has completed.
	WaitIdle()
	// Stop shuts the updater down after draining pending tasks.
	// Submitting after Stop is a no-op.
	Stop()
}

// sheddableUpdater is implemented by updaters with a backpressure
// policy for loss-tolerant work. SubmitSheddable schedules fn like
// Submit, but marks it as superseded-by-key: a later sheddable
// submission with the same key replaces a still-queued earlier one
// (the earlier fn is dropped and counted in Stats.ShedTicks), and when
// the queue is over capacity a keyless-coalesce submission may be shed
// outright. Periodic scope batches are sheddable — a batch superseded
// by a newer boundary of the same scope recomputes the same cumulative
// windows at a later instant, so shedding costs latency, never data —
// while triggered propagations and recovery probes are always
// submitted through plain Submit and are never dropped.
type sheddableUpdater interface {
	SubmitSheddable(key any, fn func())
}

// statsBinder is implemented by updaters that report queue depth into
// the env's Stats. NewEnv binds the env's counters at construction.
type statsBinder interface {
	bindStats(s *Stats)
}

// inlineUpdater runs tasks synchronously.
type inlineUpdater struct{}

// NewInlineUpdater returns an Updater executing each task immediately
// on the submitting goroutine.
func NewInlineUpdater() Updater { return inlineUpdater{} }

func (inlineUpdater) Submit(fn func()) { fn() }
func (inlineUpdater) WaitIdle()        {}
func (inlineUpdater) Stop()            {}

// poolTask is one queued unit of work. Sheddable tasks keep their
// coalescing key while queued so a newer submission can supersede them
// in place.
type poolTask struct {
	fn  func()
	key any // non-nil while the task is superseded-by-key eligible
}

// poolUpdater distributes tasks over worker goroutines. Submit never
// blocks — a task running on a pool worker can safely submit follow-up
// work; a bounded blocking channel here could wedge the whole pool,
// with every worker stuck in Submit on the full channel and no worker
// left to drain it. Backpressure is therefore applied by class instead
// of by blocking: must-run tasks (Submit) always enqueue, while
// sheddable tasks (SubmitSheddable) coalesce per key and are shed when
// the queue exceeds its capacity (see sheddableUpdater).
type poolUpdater struct {
	capacity int    // sheddable-class queue bound; 0 = unbounded, no shedding
	stats    *Stats // bound by NewEnv; nil until then

	mu        sync.Mutex
	cond      *sync.Cond
	queue     ring.Buffer[*poolTask]
	sheddable map[any]*poolTask // queued sheddable tasks by key
	pending   sync.WaitGroup
	workers   sync.WaitGroup
	stopped   bool // no new submissions accepted
	closed    bool // queue drained; workers exit
}

// poolOption configures NewPoolUpdater.
type poolOption func(*poolUpdater)

// WithQueueCapacity bounds the updater's queue at n tasks and enables
// the sheddable backpressure class: periodic scope batches coalesce per
// dependency scope, and when the queue holds n or more tasks a
// sheddable submission with no coalescing target is dropped (counted
// in Stats.ShedTicks). Must-run submissions are never dropped; the
// queue may exceed n with must-run work, which Stats.QueueHighWater
// makes visible. n <= 0 leaves the queue unbounded.
func WithQueueCapacity(n int) poolOption {
	return func(u *poolUpdater) { u.capacity = n }
}

// NewPoolUpdater returns an Updater backed by k worker goroutines.
func NewPoolUpdater(k int, opts ...poolOption) Updater {
	if k <= 0 {
		panic("core: pool updater needs at least one worker")
	}
	u := &poolUpdater{}
	for _, o := range opts {
		o(u)
	}
	if u.capacity > 0 {
		u.sheddable = make(map[any]*poolTask)
	}
	u.cond = sync.NewCond(&u.mu)
	u.workers.Add(k)
	for i := 0; i < k; i++ {
		go u.work()
	}
	return u
}

func (u *poolUpdater) bindStats(s *Stats) {
	u.mu.Lock()
	u.stats = s
	u.mu.Unlock()
}

func (u *poolUpdater) work() {
	defer u.workers.Done()
	for {
		u.mu.Lock()
		for u.queue.Len() == 0 && !u.closed {
			u.cond.Wait()
		}
		if u.queue.Len() == 0 {
			u.mu.Unlock()
			return
		}
		t := u.queue.Pop()
		if t.key != nil {
			// Once popped the task is committed to run; it can no
			// longer be superseded.
			if u.sheddable[t.key] == t {
				delete(u.sheddable, t.key)
			}
			t.key = nil
		}
		if u.stats != nil {
			u.stats.noteQueueDelta(-1)
		}
		u.mu.Unlock()
		t.fn()
		u.pending.Done()
	}
}

// Submit implements Updater: must-run class, never blocks, never
// drops.
func (u *poolUpdater) Submit(fn func()) {
	u.mu.Lock()
	if u.stopped {
		u.mu.Unlock()
		return
	}
	u.enqueueLocked(&poolTask{fn: fn})
	u.mu.Unlock()
	u.cond.Signal()
}

// SubmitSheddable implements sheddableUpdater. With no capacity
// configured it behaves exactly like Submit.
func (u *poolUpdater) SubmitSheddable(key any, fn func()) {
	u.mu.Lock()
	if u.stopped {
		u.mu.Unlock()
		return
	}
	if u.capacity <= 0 {
		u.enqueueLocked(&poolTask{fn: fn})
		u.mu.Unlock()
		u.cond.Signal()
		return
	}
	if prev, ok := u.sheddable[key]; ok {
		// Coalesce: the newer batch supersedes the queued one in
		// place. The queue slot, and the pending count it carries, are
		// reused, so WaitIdle accounting stays balanced.
		prev.fn = fn
		if u.stats != nil {
			u.stats.ShedTicks.Add(1)
		}
		u.mu.Unlock()
		return
	}
	if u.queue.Len() >= u.capacity {
		// Over capacity with nothing to coalesce into: shed. The
		// handlers of a shed scope batch stay armed for their next
		// boundary, where the cumulative window covers this one.
		if u.stats != nil {
			u.stats.ShedTicks.Add(1)
		}
		u.mu.Unlock()
		return
	}
	t := &poolTask{fn: fn, key: key}
	u.sheddable[key] = t
	u.enqueueLocked(t)
	u.mu.Unlock()
	u.cond.Signal()
}

// enqueueLocked pushes t and maintains depth accounting. u.mu held.
func (u *poolUpdater) enqueueLocked(t *poolTask) {
	u.pending.Add(1)
	u.queue.Push(t)
	if u.stats != nil {
		u.stats.noteQueueDelta(1)
	}
}

// WaitIdle implements Updater.
func (u *poolUpdater) WaitIdle() { u.pending.Wait() }

// Stop implements Updater. It drains pending tasks, then shuts the
// workers down; Submit and SubmitSheddable after Stop are no-ops (the
// task is neither run nor counted), so late boundary fires against a
// stopped updater cannot enqueue into a dead queue.
func (u *poolUpdater) Stop() {
	u.mu.Lock()
	if u.stopped {
		u.mu.Unlock()
		return
	}
	u.stopped = true
	u.mu.Unlock()
	u.pending.Wait()
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	u.cond.Broadcast()
	u.workers.Wait()
}
