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
//  2. RestoreStale re-publishes each checkpointed (value, version)
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
// caller is expected to RestoreStale the item before exposing the
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

// RestoreStale re-publishes a checkpointed last-good value on an
// included item and parks the item in quarantine serving it: reads
// return (v, *StaleError) with cause as the quarantine cause
// (ErrRestored when nil), and a recovery probe is armed on the breaker
// policy's backoff — its success recomputes, republishes fresh, and
// closes the breaker, exactly as if the item had tripped at runtime.
//
// version is the item's pre-crash publication version; the entry's
// version counter is raised to it (never lowered) before the stale
// publication bumps it, so since-based watch resumption survives the
// restart. It returns ErrUnsubscribed if the item is not included and
// ErrNotRestorable for static handlers or envs without WithBreaker
// (there is no quarantine machinery to serve the stale value through).
func (r *Registry) RestoreStale(kind Kind, v Value, version uint64, cause error) error {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	e := r.entryLocked(kind)
	if e == nil {
		return fmt.Errorf("%w: %s/%s", ErrUnsubscribed, r.id, kind)
	}
	if cause == nil {
		cause = ErrRestored
	}
	it := e.h.Load()
	if it.e.health == nil {
		why := "has no breaker (env without WithBreaker)"
		if it.Mechanism() == StaticMechanism {
			why = "is static"
		}
		return fmt.Errorf("%w: %s/%s %s", ErrNotRestorable, r.id, kind, why)
	}
	now := r.env.Now()
	it.mu.Lock()
	it.e.health.keepLastGood(&it.snaps, v)
	if it.ds != nil {
		// The restored accumulator is unknown; the next locked refresh
		// (or the probe) re-folds and re-validates.
		it.ds.valid = false
	}
	it.e.health.forceQuarantine(now, cause)
	// Restore the publication version stream: raise to the persisted
	// version (CAS loop: a concurrent publication may race the restore);
	// the stale publication itself then bumps it. Like a runtime trip,
	// publishStale also unschedules a boundary cadence; the probe
	// recomputes the cumulative window and re-arms it on success.
	for {
		cur := e.version.Load()
		if cur >= version || e.version.CompareAndSwap(cur, version) {
			break
		}
	}
	it.publishStale()
	it.mu.Unlock()
	// Propagate like any publication: dependents that were NOT restored
	// (items subscribed in the WAL tail after the checkpoint) refresh
	// from the restored value instead of staying on their placeholder;
	// restored dependents are quarantined and their refresh is a no-op.
	r.env.announceLocked(now, e)
	r.env.stats.RestoredStale.Add(1)
	return nil
}
