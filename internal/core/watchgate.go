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
// hands the new version to it. With no watcher the cost over a bare
// version bump is one atomic load and a predicted-false branch, which
// keeps the zero-watcher publish path at its PR 7 cost.
func (e *entry) bumpVersion() {
	v := e.version.Add(1)
	if ws := e.watch.Load(); ws != nil {
		(*ws).Published(v)
	}
}

// Watch installs sink as the item's publication sink and returns the
// item's current publication version, the watcher's catch-up anchor: a
// snapshot read (Peek) taken after Watch returns reflects version v or
// newer, and every later publication reaches the sink with a version
// > v (a publication racing Watch may be reported both ways, which is
// harmless under the at-least semantics of WatchSink).
//
// One sink per (registry, kind): a second Watch replaces the previous
// sink, which stops receiving notifications. The item must currently
// be included (ErrUnsubscribed otherwise) and the sink survives
// exclusion/re-inclusion of the item: it is re-installed when a new
// item for the kind commits. Note that publication versions are
// per-item-lifetime — a re-included item restarts at version 1 — so
// callers that need a stable stream across re-inclusion (the watch
// hub) pin the item with a Subscription for the sink's lifetime.
func (r *Registry) Watch(kind Kind, sink WatchSink) (uint64, error) {
	if sink == nil {
		return 0, fmt.Errorf("core: nil WatchSink for %s/%s", r.id, kind)
	}
	sc := r.env.lockScope(r)
	defer sc.unlock()
	r.mu.Lock()
	if r.watchSinks == nil {
		r.watchSinks = make(map[Kind]WatchSink)
	}
	r.watchSinks[kind] = sink
	r.mu.Unlock()
	it := r.entryLocked(kind)
	if it == nil {
		return 0, fmt.Errorf("%w: %s/%s", ErrUnsubscribed, r.id, kind)
	}
	cell := new(WatchSink)
	*cell = sink
	it.watch.Store(cell)
	return it.version.Load(), nil
}

// Unwatch removes the item's publication sink (a no-op when none is
// installed). In-flight Published calls may still be delivered after
// Unwatch returns; sinks must tolerate that.
func (r *Registry) Unwatch(kind Kind) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	r.mu.Lock()
	delete(r.watchSinks, kind)
	r.mu.Unlock()
	if it := r.entryLocked(kind); it != nil {
		it.watch.Store(nil)
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

// reattachWatchLocked re-installs a previously registered watch sink
// on a freshly committed item. Called from includeLocked under the
// component lock, gated on the registry having any sinks at all so the
// common include path pays one map-nil check.
func (r *Registry) reattachWatchLocked(it *item) {
	sink, ok := r.watchSinks[it.kind()]
	if !ok {
		return
	}
	cell := new(WatchSink)
	*cell = sink
	it.watch.Store(cell)
}
