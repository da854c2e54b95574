package core

import "repro/internal/clock"

// Crash recovery into degraded mode (internal/persist).
//
// A recovered plane must serve reads immediately without re-running
// every compute: cold-starting N items costs N computes before the
// first read, while the checkpoint already holds a last-good value for
// each of them. So while recovery replays the checkpoint's
// subscriptions it installs a lookup (SetRestoreLookup), and start
// asks it about every item it brings into service. An item the lookup
// answers is not computed: its checkpointed value is its first
// publication, tagged *StaleError with the item parked in quarantine
// (the degraded mode of a tripped breaker), and the armed recovery
// probe warms it back to healthy through the existing probe/republish
// machinery.
//
// No propagation follows. Inclusion is depth-first, so every
// dependency starts, already restored, before its dependents start,
// and a dependent's initial compute reads the final values.
//
// The persisted publication version is restored before the stale
// publication bumps it, so a watcher resuming with since=v from before
// a graceful restart receives exactly one event (the stale publication
// at v+1) instead of a replayed history or a dead stream.

// RestoredItem is one checkpointed publication of an item: its value,
// its pre-crash publication version and its quarantine cause
// (ErrRestored when nil).
type RestoredItem struct {
	Value   Value
	Version uint64
	Cause   error
}

// SetRestoreLookup installs (or, with nil, clears) the recovery-time
// lookup of checkpointed publications. While installed, on an env with
// WithBreaker, every non-static item that starts and for which lookup
// returns a publication serves it stale instead of computing. Only
// internal/persist should install this.
func (e *Env) SetRestoreLookup(lookup func(reg *Registry, kind Kind) *RestoredItem) {
	if lookup == nil {
		e.restore.Store(nil)
		return
	}
	e.restore.Store(&lookup)
}

// restoredFor returns the checkpointed publication of a starting item,
// nil when recovery has none for it.
func (e *Env) restoredFor(reg *Registry, kind Kind) *RestoredItem {
	if l := e.restore.Load(); l != nil && e.breaker != nil {
		return (*l)(reg, kind)
	}
	return nil
}

// restore publishes ri as the item's first snapshot, which is also its
// last-good value, and parks the item in quarantine serving it: the
// breaker forced open and the recovery probe armed on the policy's
// backoff. Its success recomputes, republishes fresh and closes the
// breaker, exactly as if the item had tripped at runtime. No boundary
// cadence is armed (the probe arms it), and a delta accumulator stays
// invalid (the first locked refresh after the probe re-folds). it.mu
// must be held.
func (it *item) restore(now clock.Time, ri *RestoredItem) {
	h := it.breaker()
	cause := ri.Cause
	if cause == nil {
		cause = ErrRestored
	}
	h.forceQuarantine(now, cause)
	// The item is fresh: its version is raised to the persisted one, and
	// the publication bumps it past.
	it.version.Store(max(it.version.Load(), ri.Version))
	h.lastGood = it.snaps.slot().setStale(h.staleError(ri.Value))
	it.store(h.lastGood)
}
