package clock

import (
	"sync"
	"testing"
)

// collectDispatch records every dispatch as the list of task labels.
type collectDispatch struct {
	mu      sync.Mutex
	batches [][]string
	times   []Time
}

// PendingTasks returns the total number of armed tasks.
func (s *Scheduler) PendingTasks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.buckets {
		n += len(b.tasks)
	}
	return n
}

func (c *collectDispatch) fn(now Time, due []*Task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var labels []string
	for _, t := range due {
		labels = append(labels, t.Data.(string))
	}
	c.batches = append(c.batches, labels)
	c.times = append(c.times, now)
}

func TestSchedulerBatchesSameInstant(t *testing.T) {
	vc := NewVirtual()
	var c collectDispatch
	s := NewScheduler(vc, c.fn)

	ta := &Task{Data: "a"}
	tb := &Task{Data: "b"}
	tc := &Task{Data: "c"}
	s.At(10, ta)
	s.At(10, tb)
	s.At(10, tc)

	// Three tasks, one deadline: exactly one clock event.
	if got := vc.PendingEvents(); got != 1 {
		t.Fatalf("PendingEvents = %d, want 1 (one bucket)", got)
	}
	if got := s.PendingBuckets(); got != 1 {
		t.Fatalf("PendingBuckets = %d, want 1", got)
	}
	if got := s.PendingTasks(); got != 3 {
		t.Fatalf("PendingTasks = %d, want 3", got)
	}

	vc.Advance(10)
	if len(c.batches) != 1 {
		t.Fatalf("dispatches = %d, want 1", len(c.batches))
	}
	// Delivery in arm order.
	if got := c.batches[0]; len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("batch = %v, want [a b c]", got)
	}
	if c.times[0] != 10 {
		t.Fatalf("dispatch time = %d, want 10", c.times[0])
	}
	if got := s.PendingTasks(); got != 0 {
		t.Fatalf("PendingTasks after fire = %d, want 0", got)
	}
}

func TestSchedulerDistinctDeadlines(t *testing.T) {
	vc := NewVirtual()
	var c collectDispatch
	s := NewScheduler(vc, c.fn)

	s.At(5, &Task{Data: "early"})
	s.At(10, &Task{Data: "late"})
	if got := s.PendingBuckets(); got != 2 {
		t.Fatalf("PendingBuckets = %d, want 2", got)
	}
	vc.Advance(10)
	if len(c.batches) != 2 {
		t.Fatalf("dispatches = %d, want 2", len(c.batches))
	}
	if c.batches[0][0] != "early" || c.batches[1][0] != "late" {
		t.Fatalf("batches = %v, want [[early] [late]]", c.batches)
	}
}

// TestSchedulerRearmDuringDispatch models the periodic-tick pattern:
// dispatch re-arms every task one period ahead. Tasks re-armed in
// batch order must fire in the same order at the next boundary, and
// the recycled bucket/event must not allocate-per-boundary garbage
// that breaks ordering.
func TestSchedulerRearmDuringDispatch(t *testing.T) {
	vc := NewVirtual()
	var c collectDispatch
	var s *Scheduler
	s = NewScheduler(vc, func(now Time, due []*Task) {
		for _, task := range due {
			s.At(now.Add(7), task)
		}
		c.fn(now, due)
	})
	s.At(7, &Task{Data: "x"})
	s.At(7, &Task{Data: "y"})

	for i := 0; i < 5; i++ {
		vc.Advance(7)
	}
	if len(c.batches) != 5 {
		t.Fatalf("dispatches = %d, want 5", len(c.batches))
	}
	for i, b := range c.batches {
		if len(b) != 2 || b[0] != "x" || b[1] != "y" {
			t.Fatalf("batch %d = %v, want [x y]", i, b)
		}
		if c.times[i] != Time(7*(i+1)) {
			t.Fatalf("batch %d at %d, want %d", i, c.times[i], 7*(i+1))
		}
	}
	// Steady state keeps exactly one pending event.
	if got := vc.PendingEvents(); got != 1 {
		t.Fatalf("PendingEvents = %d, want 1", got)
	}
}

func TestSchedulerCancel(t *testing.T) {
	vc := NewVirtual()
	var c collectDispatch
	s := NewScheduler(vc, c.fn)

	ta := &Task{Data: "a"}
	tb := &Task{Data: "b"}
	s.At(10, ta)
	s.At(10, tb)
	if !s.Cancel(ta) {
		t.Fatal("Cancel of armed task reported false")
	}
	if s.Cancel(ta) {
		t.Fatal("second Cancel reported true")
	}
	// A canceled task silently ignores further arming.
	s.At(10, ta)
	if got := s.PendingTasks(); got != 1 {
		t.Fatalf("PendingTasks = %d, want 1", got)
	}
	vc.Advance(10)
	if len(c.batches) != 1 || len(c.batches[0]) != 1 || c.batches[0][0] != "b" {
		t.Fatalf("batches = %v, want [[b]]", c.batches)
	}

	// Canceling the last task of a bucket cancels its clock event.
	tcN := &Task{Data: "c"}
	s.At(20, tcN)
	s.Cancel(tcN)
	if got := s.PendingBuckets(); got != 0 {
		t.Fatalf("PendingBuckets = %d, want 0", got)
	}
	if got := vc.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents = %d, want 0 after bucket cancel", got)
	}
}

// stubClock is a manual clock for racing the scheduler against its own
// fire callback: Schedule records the callback instead of running it,
// and Cancel's result is scripted, so a test can model the window where
// an event has already fired but its callback has not yet entered the
// scheduler lock.
type stubClock struct {
	now       Time
	fns       []func(Time)
	cancelOK  bool
	cancelled int
}

func (c *stubClock) Now() Time { return c.now }

func (c *stubClock) Schedule(t Time, fn func(Time)) *Event {
	c.fns = append(c.fns, fn)
	return &Event{when: t, fn: fn}
}

func (c *stubClock) After(d Duration, fn func(Time)) *Event {
	return c.Schedule(c.now.Add(d), fn)
}

func (c *stubClock) Cancel(e *Event) bool {
	c.cancelled++
	return c.cancelOK
}

// TestSchedulerCancelDuringFire pins the Cancel/fire handoff: when the
// last task of a bucket is canceled after the bucket's event fired but
// before the fire callback ran (clock Cancel reports false), the bucket
// must stay owned by fire. Recycling it in Cancel let a concurrent At
// re-arm the same bucket object for a new deadline, which the in-flight
// fire would then dispatch immediately — and fire's own recycle built a
// self-looped free list that handed one bucket to two deadlines.
func TestSchedulerCancelDuringFire(t *testing.T) {
	sc := &stubClock{}
	var c collectDispatch
	s := NewScheduler(sc, c.fn)

	// Arm one task at 10; its event "fires" (fire fn captured but not
	// yet run) and only then does Cancel retire the task.
	ta := &Task{Data: "a"}
	s.At(10, ta)
	sc.cancelOK = false // the event already fired
	if !s.Cancel(ta) {
		t.Fatal("Cancel of armed task reported false")
	}
	if got := s.PendingBuckets(); got != 1 {
		t.Fatalf("PendingBuckets = %d, want 1 (bucket left for in-flight fire)", got)
	}

	// A new deadline armed while fire is still in flight must get its
	// own bucket, not the one fire is about to detach.
	tb := &Task{Data: "b"}
	s.At(20, tb)

	// The in-flight fire now runs: it detaches the empty 10-bucket and
	// recycles it exactly once. Nothing dispatches, and b's bucket is
	// untouched.
	sc.fns[0](10)
	if len(c.batches) != 0 {
		t.Fatalf("batches after empty fire = %v, want none", c.batches)
	}
	if got := s.PendingBuckets(); got != 1 {
		t.Fatalf("PendingBuckets = %d, want 1 (only b's bucket)", got)
	}

	// Free-list integrity: two further deadlines must land in distinct
	// buckets and dispatch independently.
	s.At(30, &Task{Data: "c"})
	if got := s.PendingBuckets(); got != 2 {
		t.Fatalf("PendingBuckets = %d, want 2", got)
	}
	sc.fns[1](20)
	if len(c.batches) != 1 || len(c.batches[0]) != 1 || c.batches[0][0] != "b" {
		t.Fatalf("batches = %v, want [[b]]", c.batches)
	}
	sc.fns[2](30)
	if len(c.batches) != 2 || c.batches[1][0] != "c" {
		t.Fatalf("batches = %v, want [[b] [c]]", c.batches)
	}
	if got := s.PendingBuckets(); got != 0 {
		t.Fatalf("PendingBuckets = %d, want 0", got)
	}

	// The pending-cancel path still cancels for real: Cancel reporting
	// true recycles the bucket immediately.
	sc.cancelOK = true
	td := &Task{Data: "d"}
	s.At(40, td)
	s.Cancel(td)
	if got := s.PendingBuckets(); got != 0 {
		t.Fatalf("PendingBuckets = %d, want 0 after pending cancel", got)
	}
}

func TestSchedulerDoubleArmPanics(t *testing.T) {
	vc := NewVirtual()
	s := NewScheduler(vc, func(Time, []*Task) {})
	task := &Task{Data: "a"}
	s.At(10, task)
	defer func() {
		if recover() == nil {
			t.Fatal("arming an armed task did not panic")
		}
	}()
	s.At(20, task)
}

// TestSchedulerHeapEconomy pins the O(buckets) property: N tasks on a
// shared boundary keep a single event in the clock's queue, where the
// old per-handler tickers kept N.
func TestSchedulerHeapEconomy(t *testing.T) {
	vc := NewVirtual()
	var s *Scheduler
	s = NewScheduler(vc, func(now Time, due []*Task) {
		for _, task := range due {
			s.At(now.Add(10), task)
		}
	})
	const n = 1000
	for i := 0; i < n; i++ {
		s.At(10, &Task{Data: i})
	}
	for round := 0; round < 3; round++ {
		if got := vc.PendingEvents(); got != 1 {
			t.Fatalf("round %d: PendingEvents = %d, want 1 for %d tasks", round, got, n)
		}
		if got := s.PendingTasks(); got != n {
			t.Fatalf("round %d: PendingTasks = %d, want %d", round, got, n)
		}
		vc.Advance(10)
	}
}

func TestSchedulerConcurrentArmCancel(t *testing.T) {
	vc := NewVirtual()
	var mu sync.Mutex
	fired := 0
	var s *Scheduler
	s = NewScheduler(vc, func(now Time, due []*Task) {
		mu.Lock()
		fired += len(due)
		mu.Unlock()
		for _, task := range due {
			s.At(now.Add(1), task)
		}
	})

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				task := &Task{Data: w*1000 + i}
				s.At(Time(1+i%7), task)
				if i%3 == 0 {
					s.Cancel(task)
				}
			}
		}(w)
	}
	wg.Wait()
	vc.Advance(50)
	mu.Lock()
	defer mu.Unlock()
	if fired == 0 {
		t.Fatal("no tasks fired")
	}
}
