package watch

import (
	"sync"

	"repro/internal/core"
)

// Event is one in-process watch notification: the watched item reached
// Version, and Value/Err are its value at (or after) that version.
// Watchers observe a subsequence of the item's publications — versions
// are strictly increasing per watcher, never exhaustive.
type Event struct {
	Registry string
	Kind     core.Kind
	Version  uint64
	Value    core.Value
	Err      error
	// Snapshot marks the head of a snapshot-then-delta catch-up: the
	// watcher was behind, and this event carries the current value in
	// place of every missed publication.
	Snapshot bool
	// Coalesced reports that publications between the watcher's
	// previous event and this one were skipped — either because the
	// sweeper batched them or because the watcher's ring overflowed
	// (coalesce-to-latest).
	Coalesced bool
}

// Watcher is one subscriber's bounded delivery queue. Its host (the
// epoch-diff Hub, or a Relay re-serving an upstream server) writes
// events into the ring; the consumer drains them with Next or Poll. A
// full ring overwrites its newest slot with the latest event, so a
// slow consumer always converges to the current value without ever
// blocking a publisher.
type Watcher struct {
	// stats is the host's counter sink (ShedNotifies on overflow).
	stats *core.Stats
	// detach unregisters the watcher from its host; set by the host at
	// registration and called once from Close.
	detach func(*Watcher)
	// notify, when set (Options.Notify), is invoked after every ring
	// write in addition to the signal channel — the aggregation hook a
	// mux Session uses to fold many watchers into one wakeup.
	notify func()
	// shardIdx is the watcher's wait-list shard in a hub point,
	// assigned round-robin at registration for an even spread (unused
	// by relay hosts).
	shardIdx int

	mu       sync.Mutex
	ring     []Event
	head     int // index of the oldest queued event
	n        int // queued events
	lastSent uint64
	closed   bool

	// signal is the cap-1 wakeup channel: deliver arms it, consumers
	// drain the ring after each receive.
	signal chan struct{}
	done   chan struct{}
}

// newWatcher builds an unregistered watcher; the host fills detach and
// delivers into it once it is on a wait-list.
func newWatcher(stats *core.Stats, buffer int, since uint64, notify func(), detach func(*Watcher)) *Watcher {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	return &Watcher{
		stats:    stats,
		detach:   detach,
		notify:   notify,
		ring:     make([]Event, buffer),
		lastSent: since,
		signal:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

func (w *Watcher) shard() int { return w.shardIdx }

// deliver enqueues ev unless the watcher already saw that version. It
// is called by the host (and by catch-up under the host's lock) and
// never blocks: a full ring coalesces to the latest event.
func (w *Watcher) deliver(ev Event) {
	w.mu.Lock()
	if w.closed || ev.Version <= w.lastSent {
		w.mu.Unlock()
		return
	}
	if ev.Version > w.lastSent+1 {
		// Publications between lastSent and this event were skipped:
		// the epoch diff coalesced them.
		ev.Coalesced = true
	}
	w.lastSent = ev.Version
	shed := false
	if w.n == len(w.ring) {
		// Coalesce-to-latest: overwrite the newest slot so the ring
		// keeps its oldest events (the consumer's reading position)
		// and its final slot always holds the latest value.
		ev.Coalesced = true
		w.ring[(w.head+w.n-1)%len(w.ring)] = ev
		shed = true
	} else {
		w.ring[(w.head+w.n)%len(w.ring)] = ev
		w.n++
	}
	w.mu.Unlock()
	if shed {
		w.stats.ShedNotifies.Add(1)
	}
	select {
	case w.signal <- struct{}{}:
	default:
	}
	if w.notify != nil {
		w.notify()
	}
}

// Poll removes and returns the oldest queued event without blocking.
func (w *Watcher) Poll() (Event, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return Event{}, false
	}
	ev := w.ring[w.head]
	w.ring[w.head] = Event{}
	w.head = (w.head + 1) % len(w.ring)
	w.n--
	return ev, true
}

// Pending returns the number of queued events.
func (w *Watcher) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Next blocks until an event is queued and returns it; ok is false
// once the watcher is closed and drained.
func (w *Watcher) Next() (Event, bool) {
	for {
		if ev, ok := w.Poll(); ok {
			return ev, true
		}
		w.mu.Lock()
		closed := w.closed
		w.mu.Unlock()
		if closed {
			return Event{}, false
		}
		select {
		case <-w.signal:
		case <-w.done:
		}
	}
}

// LastSent returns the version of the most recently enqueued event —
// the watcher's delivery horizon (queued events included, drained or
// not).
func (w *Watcher) LastSent() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSent
}

// Close unregisters the watcher. Queued events remain drainable; Next
// returns ok == false once the ring is empty.
func (w *Watcher) Close() {
	w.detach(w)
	w.closeRing()
}

// closeRing marks the watcher closed and releases blocked Next calls.
func (w *Watcher) closeRing() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
}
