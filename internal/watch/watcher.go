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

// Watcher is one subscriber's bounded delivery queue. It lives on one
// hub point — a plane's item or a relay's mirrored one — whose
// delivery writes events into the ring; the consumer drains them with
// Next or Poll. A full ring overwrites its newest slot with the latest
// event, so a slow consumer always converges to the current value
// without ever blocking a publisher.
type Watcher struct {
	// p is the point the watcher is registered on; Close leaves it and
	// overflow counts into its hub's ShedNotifies.
	p *point
	// notify, when set (Options.Notify), is invoked after every ring
	// write in addition to the signal channel — the aggregation hook a
	// mux Session uses to fold many watchers into one wakeup.
	notify func()
	// shard is the watcher's wait-list shard in p, assigned
	// round-robin at registration for an even spread.
	shard int

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

// newWatcher builds a watcher for p, not yet on its wait-list.
func newWatcher(p *point, opt Options, shard int) *Watcher {
	buffer := opt.Buffer
	if buffer <= 0 {
		buffer = defaultBuffer
	}
	return &Watcher{
		p:        p,
		notify:   opt.Notify,
		shard:    shard,
		ring:     make([]Event, buffer),
		lastSent: opt.Since,
		signal:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// deliver enqueues ev unless the watcher already saw that version. It
// is called under the point's shard lock, by delivery and by catch-up,
// and never blocks: a full ring coalesces to the latest event.
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
		w.p.hub.stats.ShedNotifies.Add(1)
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
	w.p.hub.remove(w.p, w)
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
