package watch

import (
	"testing"
	"time"
)

// sessionPlane builds a hub + view over the test plane and a session
// on it.
// Watches returns the number of registered watches.
func (s *Session) Watches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

func sessionPlane(t *testing.T) (*Session, *Hub, func()) {
	t.Helper()
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	t.Cleanup(h.Close)
	v := NewHubView(h, env, r)
	s := NewSession(v)
	t.Cleanup(s.Close)
	return s, h, publish
}

// drainSession collects everything pending without blocking.
func drainSession(s *Session) []sessionEvent {
	var evs []sessionEvent
	for {
		ev, ok := s.Poll()
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

func TestSessionMultiplexesWatches(t *testing.T) {
	s, h, publish := sessionPlane(t)

	// Two watches on the same item under distinct ids: both must see
	// every delivery, each tagged with its own id.
	if err := s.Add(1, "n1", "val", Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(2, "n1", "val", Options{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Watches(); got != 2 {
		t.Fatalf("Watches() = %d, want 2", got)
	}

	// Both catch-up snapshots (v1 from inclusion) arrive through the
	// merged queue.
	seen := map[uint64]Event{}
	for len(seen) < 2 {
		ev, ok := s.Next()
		if !ok {
			t.Fatal("session closed early")
		}
		seen[ev.ID] = ev.Event
	}
	for id, ev := range seen {
		if !ev.Snapshot || ev.Version != 1 {
			t.Fatalf("watch %d first event = %+v; want snapshot v1", id, ev)
		}
	}

	publish()
	h.Barrier()
	seen = map[uint64]Event{}
	for len(seen) < 2 {
		ev, ok := s.Next()
		if !ok {
			t.Fatal("session closed early")
		}
		seen[ev.ID] = ev.Event
	}
	for id, ev := range seen {
		if ev.Snapshot || ev.Version != 2 {
			t.Fatalf("watch %d delta = %+v; want v2 delta", id, ev)
		}
	}
}

func TestSessionAddErrors(t *testing.T) {
	s, _, _ := sessionPlane(t)

	if err := s.Add(1, "n1", "val", Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(1, "n1", "src", Options{}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := s.Add(2, "nope", "val", Options{}); err == nil {
		t.Fatal("unknown registry accepted")
	}
	if err := s.Add(2, "n1", "bogus", Options{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// A failed add must not leak its id.
	if err := s.Add(2, "n1", "val", Options{}); err != nil {
		t.Fatalf("id 2 not reusable after failed add: %v", err)
	}
}

func TestSessionRemoveDropsEvents(t *testing.T) {
	s, h, publish := sessionPlane(t)

	if err := s.Add(1, "n1", "val", Options{}); err != nil {
		t.Fatal(err)
	}
	if ev, ok := s.Next(); !ok || ev.ID != 1 || !ev.Snapshot {
		t.Fatalf("first event = %+v, %v; want id-1 snapshot", ev, ok)
	}
	s.Remove(1)
	if got := s.Watches(); got != 0 {
		t.Fatalf("Watches() after remove = %d, want 0", got)
	}
	publish()
	h.Barrier()
	if evs := drainSession(s); len(evs) != 0 {
		t.Fatalf("removed watch still delivered: %+v", evs)
	}
	// The id is reusable, and the re-add catches up from scratch.
	// (Removing the last watcher released the item, so its version
	// stream restarted: the snapshot is v1 of a fresh inclusion.)
	if err := s.Add(1, "n1", "val", Options{}); err != nil {
		t.Fatal(err)
	}
	if ev, ok := s.Next(); !ok || !ev.Snapshot {
		t.Fatalf("re-added watch first event = %+v, %v; want snapshot", ev, ok)
	}
}

func TestSessionRoundRobinFairness(t *testing.T) {
	s, h, publish := sessionPlane(t)

	// A hot watch with a deep backlog must not starve a second watch:
	// the dirty queue is serviced one event per turn.
	if err := s.Add(1, "n1", "val", Options{Buffer: 64}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		publish()
		h.Barrier()
	}
	if err := s.Add(2, "n1", "val", Options{Buffer: 64}); err != nil {
		t.Fatal(err)
	}
	// Watch 1 has a multi-event backlog; watch 2 exactly one snapshot.
	// The second poll position must not wait for watch 1 to drain.
	first, ok := s.Poll()
	if !ok {
		t.Fatal("no first event")
	}
	second, ok := s.Poll()
	if !ok {
		t.Fatal("no second event")
	}
	if first.ID == second.ID {
		t.Fatalf("queue not fair: first two events from watch %d and %d", first.ID, second.ID)
	}
}

func TestSessionCloseReleasesNext(t *testing.T) {
	s, _, _ := sessionPlane(t)
	if err := s.Add(1, "n1", "val", Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not release on Close")
	}
	if err := s.Add(2, "n1", "val", Options{}); err == nil {
		t.Fatal("Add accepted on closed session")
	}
}

// TestSessionPollAllocs pins the session's steady state: delivering an
// event to one watch and polling it back allocates nothing. The dirty
// queue drains to empty between events, so popping it must keep its
// array for the next wake.
func TestSessionPollAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	env, r, _, _ := testPlane(t)
	h := NewHub(env)
	defer h.Close()
	s := NewSession(NewHubView(h, env, r))
	defer s.Close()
	if err := s.Add(1, "n1", "val", Options{}); err != nil {
		t.Fatal(err)
	}
	drainSession(s)
	p := h.points[pointKey{r, "val"}]
	v := p.ver.Load()
	allocs := testing.AllocsPerRun(1000, func() {
		v++
		h.deliverPoint(p, v)
		if _, ok := s.Poll(); !ok {
			t.Fatal("delivered event not polled")
		}
	})
	t.Logf("%.2f allocations per deliver + Poll", allocs)
	if allocs != 0 {
		t.Fatalf("deliver + Poll costs %.2f allocations, want 0", allocs)
	}
}

func TestSessionAggregatedSignal(t *testing.T) {
	s, h, publish := sessionPlane(t)
	for id := uint64(1); id <= 8; id++ {
		if err := s.Add(id, "n1", "val", Options{}); err != nil {
			t.Fatal(err)
		}
	}
	drainSession(s) // swallow the 8 catch-up snapshots
	publish()
	h.Barrier()
	// One wait on the merged signal suffices to find all 8 deliveries.
	select {
	case <-s.Signal():
	default:
		// Poll below will still find the events; Signal is cap-1 and
		// may have been consumed by the drain above racing delivery.
	}
	evs := drainSession(s)
	if len(evs) != 8 {
		t.Fatalf("drained %d events after publish, want 8", len(evs))
	}
}
