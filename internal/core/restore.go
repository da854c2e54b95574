package core

import "fmt"

// Crash recovery into degraded mode (internal/persist).
//
// A recovered plane must serve reads immediately without re-running
// every compute: cold-starting N items costs N computes before the
// first read, while the checkpoint already holds a last-good value for
// each of them. Recovery therefore runs in two phases:
//
//  1. While the restore-pending predicate is installed
//     (SetRestorePending), replayed subscriptions skip their initial
//     compute and publish ErrNoValue — a placeholder no reader should
//     ever see, because phase 2 follows before recovery returns.
//  2. RestoreStaleBatch re-publishes each checkpointed (value, version)
//     pair with the item parked in quarantine: reads serve the
//     last-good value tagged *StaleError (exactly PR 4's degraded
//     mode), and the armed recovery probe warms the item back to
//     healthy through the existing probe/republish machinery.
//
// The persisted publication version is restored before the stale
// publication bumps it, so a watcher resuming with since=v from before
// a graceful restart receives exactly one event (the stale republish at
// v+1) instead of a replayed history or a dead stream.

// SetRestorePending installs (or, with nil, clears) the recovery-time
// skip-compute predicate. While installed, a periodic or triggered
// handler whose (registry, kind) the predicate claims publishes
// ErrNoValue at start instead of running its initial compute; the
// caller is expected to RestoreStaleBatch the item before exposing the
// plane. Only internal/persist should install this.
func (e *Env) SetRestorePending(pred func(reg *Registry, kind Kind) bool) {
	if pred == nil {
		e.restorePending.Store(nil)
		return
	}
	e.restorePending.Store(&pred)
}

// restorePendingFor reports whether a recovery replay claims the item.
func (e *Env) restorePendingFor(reg *Registry, kind Kind) bool {
	p := e.restorePending.Load()
	return p != nil && (*p)(reg, kind)
}

// RestoredItem is one checkpointed publication handed to
// RestoreStaleBatch. Cause is the quarantine cause (ErrRestored when
// nil). Err is the batch's per-item verdict: nil once restored,
// ErrUnsubscribed for an item that is not included, ErrNotRestorable
// for a static item or an env without WithBreaker (there is no
// quarantine machinery to serve the stale value through).
type RestoredItem struct {
	Kind    Kind
	Value   Value
	Version uint64
	Cause   error
	Err     error
}

// RestoreStaleBatch re-publishes checkpointed last-good values on the
// registry's included items and parks each in quarantine serving it:
// reads return (Value, *StaleError) with Cause as the quarantine cause,
// and a recovery probe is armed on the breaker policy's backoff — its
// success recomputes, republishes fresh, and closes the breaker,
// exactly as if the item had tripped at runtime. It returns how many
// items it restored and leaves the reason on every other one (Err).
//
// Version is the item's pre-crash publication version; the item's
// version counter is raised to it (never lowered) before the stale
// publication bumps it, so since-based watch resumption survives the
// restart.
//
// The scope is locked once and the batch announced once, after all of
// it is quarantined — the state that restoring the items one by one
// reaches in any order (DESIGN.md §13.3).
func (r *Registry) RestoreStaleBatch(items []RestoredItem) int {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	now := r.env.Now()
	var pubsArr [16]*item
	pubs := pubsArr[:0]
	for i := range items {
		ri := &items[i]
		it := r.entryLocked(ri.Kind)
		if it == nil {
			ri.Err = fmt.Errorf("%w: %s/%s", ErrUnsubscribed, r.id, ri.Kind)
			continue
		}
		h := it.breaker()
		if h == nil {
			why := "has no breaker (env without WithBreaker)"
			if it.Mechanism() == StaticMechanism {
				why = "is static"
			}
			ri.Err = fmt.Errorf("%w: %s/%s %s", ErrNotRestorable, r.id, ri.Kind, why)
			continue
		}
		cause := ri.Cause
		if cause == nil {
			cause = ErrRestored
		}
		it.mu.Lock()
		h.keepLastGood(&it.snaps, ri.Value)
		if ds := it.delta(); ds != nil {
			// The restored accumulator is unknown; the next locked refresh
			// (or the probe) re-folds and re-validates.
			ds.valid = false
		}
		h.forceQuarantine(now, cause)
		// Restore the publication version stream: raise to the persisted
		// version (CAS loop: a concurrent publication may race the
		// restore); the stale publication itself then bumps it. Like a
		// runtime trip, publishStale also unschedules a boundary cadence;
		// the probe recomputes the cumulative window and re-arms it on
		// success.
		for {
			cur := it.version.Load()
			if cur >= ri.Version || it.version.CompareAndSwap(cur, ri.Version) {
				break
			}
		}
		it.publishStale()
		it.mu.Unlock()
		ri.Err = nil
		pubs = append(pubs, it)
	}
	if len(pubs) > 0 {
		r.env.announceLocked(now, pubs...)
		r.env.stats.RestoredStale.Add(int64(len(pubs)))
	}
	return len(pubs)
}
