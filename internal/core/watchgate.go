package core

import "fmt"

// WatchSink receives publication notifications for one watched item.
// Published is invoked with the item's new publication version after
// every version bump — window publishes, triggered refreshes, probe
// republishes, quarantine trips, memoized recomputes, migrations, and
// NotifyChanged. It runs on the publisher's goroutine, often with the
// handler mutex (and sometimes the dependency-scope lock) held, so
// implementations MUST be O(1), non-blocking, and allocation-free:
// record the version, set a flag, kick a channel — never compute,
// never take locks that publishers could wait on. The fan-out hub in
// internal/watch is the intended implementation; its Published is a
// CAS-max plus a dirty-flag test.
//
// Published calls are not serialized: concurrent publishers (e.g. a
// probe racing a migration) may invoke it concurrently and versions
// may arrive out of order. Sinks must treat the argument as "the
// version is now AT LEAST v".
type WatchSink interface {
	Published(version uint64)
}

// bumpVersion is the single publication gate: it advances the item's
// monotonic publication version and, when a watch sink is installed,
// hands the new version to it. An item with no side block pays one
// atomic load and a predicted-false branch over the bare bump; a
// watched one pays one more pointer load.
func (it *item) bumpVersion() {
	v := it.version.Add(1)
	if sd := it.side.Load(); sd != nil {
		if ws := sd.watch.Load(); ws != nil {
			(*ws).Published(v)
		}
	}
}

// Watch installs sink as the publication sink of the included item and
// returns the item's current publication version, the watcher's
// catch-up anchor: a snapshot read (Peek) taken after Watch returns
// reflects version v or newer, and every later publication reaches the
// sink with a version > v (a publication racing Watch may be reported
// both ways, which is harmless under the at-least semantics of
// WatchSink).
//
// One sink per item: a second Watch replaces the previous one. The sink
// lives and dies with the item: on a kind that is not included Watch
// fails with ErrUnsubscribed and installs nothing, and a later inclusion
// is a new item, unwatched, whose versions restart at 1. Callers that
// need a stable stream (the watch hub) pin the item with a Subscription.
func (r *Registry) Watch(kind Kind, sink WatchSink) (uint64, error) {
	if sink == nil {
		return 0, fmt.Errorf("core: nil WatchSink for %s/%s", r.id, kind)
	}
	sc := r.env.lockScope(r)
	defer sc.unlock()
	it := r.entryLocked(kind)
	if it == nil {
		return 0, fmt.Errorf("%w: %s/%s", ErrUnsubscribed, r.id, kind)
	}
	cell := new(WatchSink)
	*cell = sink
	it.sideLocked().watch.Store(cell)
	return it.version.Load(), nil
}

// Unwatch removes the item's publication sink (a no-op when none is
// installed). In-flight Published calls may still be delivered after
// Unwatch returns; sinks must tolerate that.
func (r *Registry) Unwatch(kind Kind) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	if it := r.entryLocked(kind); it != nil && it.side.Load() != nil {
		it.side.Load().watch.Store(nil)
	}
}

// ItemVersion returns the item's current publication version, or
// ok == false when the item is not included. It is a lock-free read
// (one table search under the node-level RLock plus an atomic load), the
// right primitive for snapshot-then-delta catch-up: read the version,
// Peek the value, and every publication after the Peek carries a
// version strictly greater than the one returned here.
func (r *Registry) ItemVersion(kind Kind) (uint64, bool) {
	it := r.entryOf(kind)
	if it == nil {
		return 0, false
	}
	return it.version.Load(), true
}
