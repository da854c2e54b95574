package watch

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// sessionEvent is one event delivered through a Session, tagged with
// the caller-assigned watch id it belongs to.
type sessionEvent struct {
	ID uint64
	Event
}

// Session multiplexes any number of watches over one consumer: the
// caller Adds and Removes (registry, kind, since) watches under small
// integer ids of its choosing and drains a single merged queue. Each
// watch keeps its own bounded ring underneath — per-watch
// coalesce-to-latest shedding and the per-watch delivery contract
// (monotonic versions, flagged gaps, snapshot catch-up) are exactly
// those of a standalone Watcher — but wakeups aggregate onto one cap-1
// signal channel, so a consumer of 10k watches waits on one channel,
// not 10k. The HTTP mux transport serializes a Session onto one
// connection.
//
// Delivery notifications push the affected watch onto a dirty queue
// (deduplicated per watch), and Poll services dirty watches in FIFO
// order, one event at a time — round-robin fairness, so a hot item
// cannot starve a quiet one.
type Session struct {
	src Source

	mu      sync.Mutex
	entries map[uint64]*sessionEntry
	// queue[qhead:] are the dirty entries, popped by advancing qhead so
	// the array is reused instead of reallocated as it drains and fills.
	queue  []*sessionEntry
	qhead  int
	closed bool

	// signal is the merged cap-1 wakeup; done closes with the session.
	signal chan struct{}
	done   chan struct{}
}

// sessionEntry is one multiplexed watch.
type sessionEntry struct {
	id uint64
	// w is nil until registration completes; a notification arriving
	// in that window (the catch-up snapshot delivered inside WatchItem)
	// sets stalled, and Add re-queues the entry once w is set.
	w       *Watcher
	queued  bool
	stalled bool
}

// NewSession creates an empty session over src.
func NewSession(src Source) *Session {
	return &Session{
		src:     src,
		entries: make(map[uint64]*sessionEntry),
		signal:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// Add registers a watch on (registry, kind) under the caller-assigned
// id. The watch's first events obey the standalone contract: a single
// snapshot when the item is already past opt.Since, then deltas.
// Duplicate ids are rejected; the id becomes reusable after Remove.
func (s *Session) Add(id uint64, registry string, kind string, opt Options) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("watch: session is closed")
	}
	if _, dup := s.entries[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("watch: duplicate watch id %d", id)
	}
	e := &sessionEntry{id: id}
	s.entries[id] = e
	s.mu.Unlock()

	// The catch-up snapshot is delivered inside WatchItem, before e.w
	// is set: wake() records it as stalled and Add requeues below.
	opt.Notify = func() { s.wake(e) }
	w, err := s.src.WatchItem(registry, core.Kind(kind), opt)
	s.mu.Lock()
	if err != nil || s.closed {
		delete(s.entries, id)
		closed := s.closed
		s.mu.Unlock()
		if w != nil && closed {
			w.Close()
		}
		if err == nil {
			err = fmt.Errorf("watch: session is closed")
		}
		return err
	}
	e.w = w
	if e.stalled {
		e.stalled = false
		s.wakeLocked(e)
	}
	s.mu.Unlock()
	return nil
}

// Remove unregisters the watch id. Its undrained events are dropped.
func (s *Session) Remove(id uint64) {
	s.mu.Lock()
	e := s.entries[id]
	delete(s.entries, id)
	s.mu.Unlock()
	if e != nil && e.w != nil {
		e.w.Close()
	}
}

// wake marks e dirty and arms the merged signal. It is the watcher's
// Options.Notify hook — called after every ring write, it must stay
// non-blocking (map/slice ops under a leaf mutex plus a cap-1 send).
func (s *Session) wake(e *sessionEntry) {
	s.mu.Lock()
	if e.w == nil {
		e.stalled = true
		s.mu.Unlock()
		return
	}
	s.wakeLocked(e)
	s.mu.Unlock()
}

// wakeLocked queues e (deduplicated) and arms the signal.
func (s *Session) wakeLocked(e *sessionEntry) {
	if !e.queued {
		e.queued = true
		if s.qhead > 0 && len(s.queue) == cap(s.queue) {
			// Reuse the popped prefix before append grows the array.
			s.queue = s.queue[:copy(s.queue, s.queue[s.qhead:])]
			s.qhead = 0
		}
		s.queue = append(s.queue, e)
	}
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

// Poll removes and returns the next event across all watches without
// blocking, servicing dirty watches round-robin.
func (s *Session) Poll() (sessionEvent, bool) {
	for {
		s.mu.Lock()
		var e *sessionEntry
		for s.qhead < len(s.queue) {
			cand := s.queue[s.qhead]
			s.qhead++
			if s.qhead == len(s.queue) {
				s.queue, s.qhead = s.queue[:0], 0
			}
			cand.queued = false
			if s.entries[cand.id] != cand || cand.w == nil {
				continue // removed, or still registering (wake re-marks)
			}
			e = cand
			break
		}
		s.mu.Unlock()
		if e == nil {
			return sessionEvent{}, false
		}
		ev, ok := e.w.Poll()
		if !ok {
			continue // raced empty; the next deliver re-queues it
		}
		if e.w.Pending() > 0 {
			s.wake(e)
		}
		return sessionEvent{ID: e.id, Event: ev}, true
	}
}

// Next blocks until an event is available on any watch and returns
// it; ok is false once the session is closed and drained.
func (s *Session) Next() (sessionEvent, bool) {
	for {
		if ev, ok := s.Poll(); ok {
			return ev, true
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return sessionEvent{}, false
		}
		select {
		case <-s.signal:
		case <-s.done:
		}
	}
}

// Signal exposes the merged wakeup channel for select loops. After a
// receive, drain with Poll until empty.
func (s *Session) Signal() <-chan struct{} { return s.signal }

// Done is closed when the session is closed.
func (s *Session) Done() <-chan struct{} { return s.done }

// Close unregisters every watch. Events already polled stay valid;
// queued ones are dropped, and Next returns ok == false.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ws := make([]*Watcher, 0, len(s.entries))
	for id, e := range s.entries {
		if e.w != nil {
			ws = append(ws, e.w)
		}
		delete(s.entries, id)
	}
	s.queue, s.qhead = nil, 0
	s.mu.Unlock()
	for _, w := range ws {
		w.Close()
	}
	close(s.done)
}
