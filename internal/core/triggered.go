package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// triggeredHandler serves a pre-computed value that is refreshed only
// when an underlying metadata item publishes a new value or a
// registered event fires (Section 3.2.3). The value is pre-computed at
// the first subscription; refreshes propagate recursively along the
// inverted dependency graph in topological order, so a handler is
// refreshed only after all of its updated dependencies.
//
// Like the periodic handler, the current value is published through an
// atomic snapshot pointer, so Value() is lock-free.
type triggeredHandler struct {
	compute ComputeFunc

	// cur is the published value snapshot; nil before start and after
	// stop.
	cur atomic.Pointer[valueSnapshot]

	mu    sync.Mutex
	e     *entry
	snaps snapAlloc

	// deadline bounds each compute (0 = unbounded), resolved from the
	// definition/env at start.
	deadline clock.Duration
	// health is the item's circuit breaker, nil unless the env enables
	// WithBreaker.
	health *itemHealth
	// lastGood is the latest successfully published snapshot, served
	// tagged *StaleError while quarantined.
	lastGood *valueSnapshot

	// ds is the delta-aggregate state for handlers built by
	// NewDeltaAggregate, nil for plain triggered handlers. Its mutable
	// fields are guarded by the dependency-scope lock, which every
	// refresh caller and every pair push already holds (see delta.go).
	ds *deltaState
}

// NewTriggered returns a handler recomputed on dependency updates and
// on the events listed in the item's Definition. compute typically
// reads the item's dependency handles.
func NewTriggered(compute ComputeFunc) Handler {
	return &triggeredHandler{compute: compute}
}

func (h *triggeredHandler) Value() (Value, error) {
	s := h.cur.Load()
	if s == nil {
		return nil, ErrUnsubscribed
	}
	return s.val, s.err
}

func (h *triggeredHandler) Mechanism() Mechanism { return TriggeredMechanism }

func (h *triggeredHandler) start(e *entry) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.e = e
	h.deadline = e.reg.env.deadlineFor(e.def)
	h.health = newItemHealth(e.reg.env, h)
	if h.ds != nil {
		// Fix delta eligibility and register on the dependencies' delta
		// channels before the initial fold, so the fold reads the same
		// deltaLast values the accumulator will be patched from. start
		// runs under the dependency-scope lock (includeLocked).
		h.ds.startLocked(e)
	}
	if e.reg.env.restorePendingFor(e.reg, e.kind()) {
		// Recovery replay: skip the pre-compute — RestoreStale will
		// re-publish the checkpointed last-good value before the plane is
		// exposed. Delta aggregates stay registered on their dependency
		// channels (startLocked above) with the accumulator invalid; the
		// first post-recovery refresh re-folds.
		h.cur.Store(h.snaps.put(nil, ErrNoValue))
		e.bumpVersion()
		return nil
	}
	// Pre-compute the initial value (Section 3.2.3: "values of
	// metadata items with triggered handlers are pre-computed on the
	// first subscription"). Dependencies are already included at this
	// point, so compute may read them. Like the periodic initial
	// compute, this runs on the subscriber's goroutine and is therefore
	// never deadline-bounded.
	epoch := e.reg.env.writeEpoch.Load()
	e.reg.env.Stats().ComputeCalls.Add(1)
	v, err := safeCompute(h.compute, e.reg.env.Now())
	var snap *valueSnapshot
	if h.ds != nil {
		snap = h.publishFoldLocked(v, err, epoch)
	} else {
		snap = h.snaps.put(v, err)
		h.cur.Store(snap)
	}
	e.bumpVersion()
	if snap.err == nil {
		h.lastGood = snap
	}
	return nil
}

// publishFoldLocked publishes the result of a delta aggregate's full
// fold: a successful fold seeds the accumulator (stamped with the
// epoch captured before the fold read its inputs) and publishes the
// finished float; an error invalidates it and publishes the error. The
// scope lock and h.mu must be held.
func (h *triggeredHandler) publishFoldLocked(v Value, err error, epoch uint64) *valueSnapshot {
	ds := h.ds
	var snap *valueSnapshot
	if err == nil {
		if acc, ok := v.(DeltaAcc); ok {
			ds.acc = acc
			ds.valid = true
			ds.applied = 0
			ds.epoch = epoch
			snap = h.snaps.putFloat(ds.spec.finishAcc(acc))
			h.cur.Store(snap)
			return snap
		}
		err = fmt.Errorf("%w: delta aggregate fold returned %T, want DeltaAcc", ErrNotNumeric, v)
		v = nil
	}
	ds.valid = false
	snap = h.snaps.put(v, err)
	h.cur.Store(snap)
	return snap
}

// refresh implements triggerable.
//
// h.mu is deliberately held across the user compute: it serializes
// recompute+publish against start/stop so a stopped handler can never
// publish. This is safe because readers never take it — the compute
// reaches sibling and dependency values through the lock-free snapshot
// path — and no caller holds one handler's mutex while refreshing
// another (propagation refreshes handlers strictly one at a time under
// the scope lock).
func (h *triggeredHandler) refresh(now clock.Time) error {
	if h.ds != nil {
		return h.refreshDelta(now)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.e == nil {
		return ErrUnsubscribed
	}
	if h.health.isQuarantined() {
		// The stale publication stands; recovery goes through the
		// probe, not through trigger propagation (a quarantined compute
		// re-run on every upstream update would defeat the quarantine).
		return ErrStale
	}
	env := h.e.reg.env
	stats := env.Stats()
	stats.ComputeCalls.Add(1)
	stats.TriggeredUpdates.Add(1)
	var v Value
	var err error
	if h.deadline > 0 {
		v, err = boundedCompute(env.clk, h.deadline, stats, h.compute, now)
	} else {
		v, err = safeCompute(h.compute, now)
	}
	if err == nil || !breakerEligible(err) {
		h.health.onSuccess()
		snap := h.snaps.put(v, err)
		h.cur.Store(snap)
		h.e.bumpVersion()
		if err == nil && h.health != nil {
			// lastGood is only ever served while quarantined, so the
			// breaker-less hot path skips the pointer store (and its
			// write barrier).
			h.lastGood = snap
		}
		return err
	}
	if h.health.onFailure(now, err) {
		// Tripped: republish the last-good value tagged stale. The
		// propagation that invoked this refresh carries the degraded
		// view onward to deeper dependents; the armed probe owns
		// recovery.
		var lastVal Value
		if h.lastGood != nil {
			lastVal = h.lastGood.val
		}
		h.cur.Store(h.snaps.put(lastVal, h.health.staleError()))
		h.e.bumpVersion()
		return err
	}
	h.cur.Store(h.snaps.put(v, err))
	h.e.bumpVersion()
	return err
}

// refreshDelta is refresh for delta aggregates (see delta.go): consume
// the pending (old, new) pairs and apply them to the accumulator in
// O(1) each when the channel is provably exact, else fall back to the
// byte-identical full fold. The caller holds the dependency-scope lock
// (every refresh caller does), which guards the delta state.
func (h *triggeredHandler) refreshDelta(now clock.Time) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.e == nil {
		return ErrUnsubscribed
	}
	ds := h.ds
	// Consume the delta input first — pairs and poison marks must not
	// leak into a later refresh — even when this refresh cannot use
	// them (quarantine below drops them and invalidates instead).
	pairs := ds.pending
	poisoned := ds.poisoned
	ds.pending = ds.pending[:0]
	ds.poisoned = false
	if h.health.isQuarantined() {
		// The stale publication stands (see refresh); the accumulator
		// no longer reflects the consumed pair stream.
		ds.valid = false
		return ErrStale
	}
	env := h.e.reg.env
	stats := env.Stats()
	stats.TriggeredUpdates.Add(1)
	// eligible is false on delta-off envs (startLocked), so one flag
	// covers both the ablation and the structural conditions.
	if ds.eligible && ds.valid && !poisoned &&
		ds.epoch == env.writeEpoch.Load() &&
		(len(pairs) == 0 || ds.spec.Retract != nil) {
		if ds.rebase > 0 && ds.applied >= ds.rebase {
			// Drift bound: re-fold from scratch on schedule.
			stats.DeltaRebases.Add(1)
			return h.foldRefreshLocked(now)
		}
		if acc, ok := ds.applyPairs(ds.acc, pairs); ok {
			stats.DeltaFires.Add(1)
			ds.acc = acc
			ds.applied++
			// Publish through the normal version-bump path: snapshot
			// first, then the version, so PR 5 memo stamps over this
			// item stay exact.
			snap := h.snaps.putFloat(ds.spec.finishAcc(acc))
			h.cur.Store(snap)
			h.e.bumpVersion()
			if h.health != nil {
				h.lastGood = snap
			}
			return nil
		}
		// Retract refused (or a spec callback panicked) mid-apply: the
		// accumulator is unusable.
		ds.valid = false
	}
	stats.DeltaFallbacks.Add(1)
	return h.foldRefreshLocked(now)
}

// foldRefreshLocked is the aggregate's full-recompute refresh, the
// exact-fallback half of the delta contract. It mirrors the plain
// refresh publish paths, routed through publishFoldLocked so a
// successful fold re-seeds the accumulator. h.mu and the scope lock
// must be held.
func (h *triggeredHandler) foldRefreshLocked(now clock.Time) error {
	e := h.e
	env := e.reg.env
	stats := env.Stats()
	// Capture the epoch before the fold reads its inputs: a structural
	// change racing the fold then invalidates the accumulator at the
	// next refresh instead of being half-visible in it.
	epoch := env.writeEpoch.Load()
	stats.ComputeCalls.Add(1)
	var v Value
	var err error
	if h.deadline > 0 {
		v, err = boundedCompute(env.clk, h.deadline, stats, h.compute, now)
	} else {
		v, err = safeCompute(h.compute, now)
	}
	if err == nil || !breakerEligible(err) {
		h.health.onSuccess()
		snap := h.publishFoldLocked(v, err, epoch)
		e.bumpVersion()
		if snap.err == nil && h.health != nil {
			h.lastGood = snap
		}
		return snap.err
	}
	h.ds.valid = false
	if h.health.onFailure(now, err) {
		var lastVal Value
		if h.lastGood != nil {
			lastVal = h.lastGood.val
		}
		h.cur.Store(h.snaps.put(lastVal, h.health.staleError()))
		e.bumpVersion()
		return err
	}
	h.cur.Store(h.snaps.put(v, err))
	e.bumpVersion()
	return err
}

// runProbe implements quarantineOwner: recompute once on the updater
// with no locks held; success republishes, closes the breaker, and
// propagates the recovery so dependents drop their degraded view.
func (h *triggeredHandler) runProbe(now clock.Time) {
	h.mu.Lock()
	if h.e == nil {
		// Stopped or migrated away. Report a no-op failure so the probe
		// re-arms: after a real stop the health state is stopped and the
		// report is inert, while after a migration the re-armed probe
		// reaches the replacement handler (the transplanted owner).
		h.mu.Unlock()
		h.health.probeFailed(now, nil)
		return
	}
	env := h.e.reg.env
	stats := env.Stats()
	stats.ComputeCalls.Add(1)
	compute := h.compute
	if h.ds != nil {
		// The probe runs without the scope lock, so it must not touch
		// the scope-guarded delta state: fold the live snapshots (the
		// accumulator stays invalid; the next locked refresh re-folds
		// and re-validates) and publish the finished float.
		ds := h.ds
		compute = func(clock.Time) (Value, error) {
			acc, err := ds.foldFrom(false)
			if err != nil {
				return nil, err
			}
			return ds.spec.finishAcc(acc), nil
		}
	}
	v, err := boundedCompute(env.clk, h.deadline, stats, compute, now)
	if err != nil && breakerEligible(err) {
		h.mu.Unlock()
		h.health.probeFailed(now, err)
		return
	}
	stats.TriggeredUpdates.Add(1)
	snap := h.snaps.put(v, err)
	h.cur.Store(snap)
	h.e.bumpVersion()
	if err == nil {
		h.lastGood = snap
	}
	h.health.closeBreaker()
	e := h.e
	h.mu.Unlock()
	if e.ndeps.Load() > 0 {
		sc := env.lockScope(e.reg)
		if e.deltaDeps > 0 {
			notifyDeltaLocked(e)
		}
		e.reg.propagateLocked(e, now)
		sc.unlock()
	}
}

// healthSnapshot implements healthCarrier.
func (h *triggeredHandler) healthSnapshot() HealthSnapshot { return h.health.snapshot() }

func (h *triggeredHandler) stop() {
	h.mu.Lock()
	h.e = nil
	h.cur.Store(nil)
	h.mu.Unlock()
	h.health.stop()
}
