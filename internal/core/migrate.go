package core

import (
	"fmt"

	"repro/internal/clock"
)

// Live mechanism migration (ROADMAP: closed-loop adaptive maintenance).
//
// The paper fixes each metadata item's update mechanism at definition
// time, but the economics of a mechanism depend on the live workload:
// an item read on every tuple wants a published (periodic/triggered)
// or memoized value, an item updated constantly but read rarely wants
// on-demand, and the break-even point moves as the stream's mix moves.
// Registry.Migrate swaps an in-use item's handler for an equivalent one
// under a different mechanism — atomically under the dependency-scope
// lock, without disturbing subscribers, and preserving the item's
// last-good value and circuit-breaker state — so a controller
// (internal/adapt) can follow the workload instead of pinning the
// definition-time guess.
//
// A definition opts in by declaring an AdaptSpec: the same metadata
// quantity expressed as an on-demand compute, a triggered compute,
// and/or a periodic window compute. The factories receive the item's
// original BuildContext, so every form reads the same resolved
// dependency handles and the forms cannot drift structurally.
//
// What a migration preserves:
//
//   - subscribers: Subscriptions and Handles point at the entry, not
//     the handler; they observe the new mechanism on their next read.
//   - readers in flight: the entry publishes its handler through a
//     write-once heap cell (entry.pub); a reader that loaded the old
//     cell finishes its read against the old handler, which stays
//     servable (its published snapshot is left in place) until
//     unreferenced.
//   - last-good value and breaker state: the itemHealth is transplanted
//     to the new handler — failure history, quarantine, armed probes
//     and their backoff all carry over; a quarantined item migrates
//     quarantined, serving the same stale value, and its next probe
//     recovers through the new mechanism.
//   - exactness machinery: the migration bumps the item's publication
//     version and the env write epoch, so memo stamps and cached
//     propagation plans can never survive it; dependent delta
//     aggregates are re-anchored in two phases so their accumulators
//     re-fold against the new handler's published value.
//
// What cannot migrate: static items (nothing to maintain), delta
// aggregates (their handler IS the delta machinery; re-expressing it
// per mechanism is not meaningful), items without an AdaptSpec, and
// targets the spec declares no compute for — all ErrNotMigratable.

// AdaptSpec declares a metadata item's alternative maintenance forms
// for live migration (Definition.Adapt). Each non-nil factory provides
// one target mechanism; Registry.Migrate invokes it with the item's
// original BuildContext. A factory must return a compute over the
// resolved dependency handles equivalent to the Build-time form —
// "equivalent" in whatever sense the item's consumers need; the
// modelcheck harness pins bit-identity for pure forms.
type AdaptSpec struct {
	// OnDemand builds the recompute-per-access form.
	OnDemand func(ctx *BuildContext) ComputeFunc
	// Triggered builds the recompute-on-dependency-update form.
	Triggered func(ctx *BuildContext) ComputeFunc
	// Periodic builds the per-window form.
	Periodic func(ctx *BuildContext) WindowComputeFunc
	// Window is the default periodic window, used when Migrate is called
	// with window <= 0. Required (here or per call) for periodic targets.
	Window clock.Duration
	// Pure declares that the OnDemand form is a pure function of the
	// declared dependencies, exactly like Definition.Pure: after a
	// migration to on-demand it decides memo engagement on
	// WithMemoizedOnDemand envs.
	Pure bool
}

// Migrate atomically replaces the maintenance mechanism of an in-use
// item with the AdaptSpec form for the target mechanism, preserving
// subscribers, the last-good value, and circuit-breaker state (see the
// package comment above). window sets the periodic window for
// PeriodicMechanism targets (<= 0 selects AdaptSpec.Window) and is
// ignored for other targets. Migrating an item onto its current
// mechanism (and, for periodic, its current window) is a no-op.
//
// It returns ErrUnsubscribed if the item is not included and
// ErrNotMigratable if the item or the target does not support
// migration. A factory that panics or returns nil fails the migration
// with the item untouched.
func (r *Registry) Migrate(kind Kind, to Mechanism, window clock.Duration) error {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	env := r.env
	now := env.Now()

	e := r.entryLocked(kind)
	if e == nil {
		return fmt.Errorf("%w: %s/%s", ErrUnsubscribed, r.id, kind)
	}
	spec := e.def.Adapt
	if spec == nil {
		return fmt.Errorf("%w: %s/%s declares no AdaptSpec", ErrNotMigratable, r.id, kind)
	}
	if e.def.Delta != nil {
		return fmt.Errorf("%w: %s/%s is a delta aggregate", ErrNotMigratable, r.id, kind)
	}
	old := e.handler
	switch old.(type) {
	case *onDemandHandler, *periodicHandler, *triggeredHandler:
	default:
		return fmt.Errorf("%w: %s/%s handler is %T", ErrNotMigratable, r.id, kind, old)
	}

	// Target checks precede the identity no-op so an unsupported target
	// reports the same error whether or not it matches the current
	// mechanism.
	switch to {
	case OnDemandMechanism:
		if spec.OnDemand == nil {
			return fmt.Errorf("%w: %s/%s declares no on-demand form", ErrNotMigratable, r.id, kind)
		}
	case TriggeredMechanism:
		if spec.Triggered == nil {
			return fmt.Errorf("%w: %s/%s declares no triggered form", ErrNotMigratable, r.id, kind)
		}
	case PeriodicMechanism:
		if spec.Periodic == nil {
			return fmt.Errorf("%w: %s/%s declares no periodic form", ErrNotMigratable, r.id, kind)
		}
		if window <= 0 {
			window = spec.Window
		}
		if window <= 0 {
			return fmt.Errorf("%w: %s/%s periodic migration without a positive window", ErrNotMigratable, r.id, kind)
		}
	default:
		return fmt.Errorf("%w: cannot migrate %s/%s to %v", ErrNotMigratable, r.id, kind, to)
	}

	if old.Mechanism() == to {
		if to != PeriodicMechanism || old.(*periodicHandler).window == window {
			return nil
		}
	}

	// Build the replacement compute before touching the old handler, so
	// a panicking (or nil-returning) factory leaves the item untouched.
	// The context is a fresh view of the entry's edge slice: the same
	// dependency handles the original Build saw.
	bctx := &BuildContext{e: e}
	var compute ComputeFunc
	var winCompute WindowComputeFunc
	var err error
	switch to {
	case OnDemandMechanism:
		compute, err = adaptCompute("on-demand", spec.OnDemand, bctx)
	case TriggeredMechanism:
		compute, err = adaptCompute("triggered", spec.Triggered, bctx)
	case PeriodicMechanism:
		winCompute, err = adaptWindowCompute(spec.Periodic, bctx)
	}
	if err != nil {
		return fmt.Errorf("migrating %s/%s to %v: %w", r.id, kind, to, err)
	}

	// Tear down the old handler WITHOUT stop(): stop would retire the
	// breaker and cancel armed probes, which must survive the migration.
	// The old handler's published snapshot is deliberately left in place
	// so a reader that loaded the old pub cell still gets a coherent
	// (pre-migration) read; its maintenance is disarmed so it never
	// publishes again.
	var lastGood Value
	var haveGood bool
	var ih *itemHealth
	var cancelTask *clock.Task
	switch h := old.(type) {
	case *onDemandHandler:
		h.mu.Lock()
		ih = h.health
		lastGood = h.lastGood
		haveGood = h.lastGood != nil
		h.retired = true
		h.mstate.Store(nil)
		h.memo.Store(nil)
		// h.e stays set: ghost readers of the retired handler still
		// compute (equivalent to a read that landed just before the
		// migration); runProbe routes around it via the retired flag.
		h.mu.Unlock()
	case *periodicHandler:
		h.mu.Lock()
		ih = h.health
		if h.lastGood != nil {
			lastGood, haveGood = h.lastGood.val, true
		}
		h.stopped = true
		h.e = nil
		cancelTask = h.task
		h.task = nil
		h.mu.Unlock()
	case *triggeredHandler:
		h.mu.Lock()
		ih = h.health
		if h.lastGood != nil {
			lastGood, haveGood = h.lastGood.val, true
		}
		h.e = nil
		h.mu.Unlock()
	}
	if cancelTask != nil {
		env.scheduler().Cancel(cancelTask)
	}
	quarantined := ih.isQuarantined()

	// Build and initialize the replacement. This mirrors what the
	// handler's start would do, except the itemHealth is the transplanted
	// one and a quarantined item publishes its stale last-good instead of
	// computing (the armed probe owns recovery, now through the new
	// mechanism). Initial computes run on the caller's goroutine under
	// the scope lock, exactly like include-time initial computes, and are
	// therefore never deadline-bounded.
	var nh Handler
	switch to {
	case OnDemandMechanism:
		od := &onDemandHandler{compute: compute}
		od.e = e
		od.deadline = env.deadlineFor(e.def)
		od.health = ih
		od.pure = spec.Pure
		od.lastGood = lastGood
		if ms := newMemoState(e, ih, od.pure); ms != nil {
			od.mstate.Store(ms)
		}
		nh = od
	case TriggeredMechanism:
		th := &triggeredHandler{compute: compute}
		th.e = e
		th.deadline = env.deadlineFor(e.def)
		th.health = ih
		if haveGood && ih != nil {
			th.lastGood = th.snaps.put(lastGood, nil)
		}
		if quarantined {
			th.cur.Store(th.snaps.put(lastGood, ih.staleError()))
		} else {
			env.stats.ComputeCalls.Add(1)
			v, cerr := safeCompute(compute, now)
			snap := th.snaps.put(v, cerr)
			th.cur.Store(snap)
			if cerr == nil && ih != nil {
				th.lastGood = snap
			}
		}
		nh = th
	case PeriodicMechanism:
		ph := &periodicHandler{window: window, compute: winCompute}
		ph.env = env
		ph.e = e
		ph.winStart = now
		ph.async = env.async
		ph.deadline = env.deadlineFor(e.def)
		ph.health = ih
		if haveGood && ih != nil {
			ph.lastGood = ph.snaps.put(lastGood, nil)
		}
		if quarantined {
			// Unscheduled like any quarantined periodic handler; the
			// probe's success republishes and re-arms the cadence.
			ph.cur.Store(ph.snaps.put(lastGood, ih.staleError()))
		} else {
			env.stats.ComputeCalls.Add(1)
			v, cerr := safeWindowCompute(winCompute, now, now)
			snap := ph.snaps.put(v, cerr)
			ph.cur.Store(snap)
			if cerr == nil && ih != nil {
				ph.lastGood = snap
			}
			ph.task = &clock.Task{Data: ph}
			env.scheduler().At(now.Add(window), ph.task)
		}
		nh = ph
	}

	// Transplant the breaker: from here on, probe fires reach the new
	// handler. A probe that fired against the old handler in the window
	// since teardown re-armed itself via probeFailed and lands here next.
	if ih != nil {
		ih.mu.Lock()
		ih.owner = nh.(quarantineOwner)
		ih.mu.Unlock()
	}

	// Commit: swap the structural reference, publish the new handler
	// through a fresh write-once cell, and invalidate every exactness
	// cache — the version bump covers memo stamps over this item, the
	// structural bump covers plans and env-wide memo epochs.
	e.handler = nh
	e.publishHandlerLocked(nh)
	e.bumpVersion()
	bumpStruct(r)

	// Re-anchor dependent delta aggregates in two phases: first drop
	// every tracked edge (so this entry's deltaDeps drains to zero even
	// when several aggregates track it), then reset and re-register each
	// aggregate. The 0 -> 1 transition in startLocked re-anchors
	// deltaLast at the NEW handler's published value, and eligibility is
	// re-decided against the new mechanism (an on-demand target forces
	// dependents onto the exact fold path). Accumulators are invalidated;
	// the propagation below re-folds them. A dependent declaring this
	// item twice is listed twice: the drop-and-reset pass is idempotent,
	// and the re-register pass skips an aggregate that is eligible again.
	for _, d := range e.dependents {
		if th, ok := d.e.handler.(*triggeredHandler); ok && th.ds != nil {
			th.ds.stopLocked()
			th.ds.pending = th.ds.pending[:0]
			th.ds.poisoned = false
			th.ds.valid = false
		}
	}
	for _, d := range e.dependents {
		if th, ok := d.e.handler.(*triggeredHandler); ok && th.ds != nil && !th.ds.eligible {
			th.ds.startLocked(d.e)
		}
	}

	// Re-decide memo engagement for direct on-demand dependents: their
	// stampability premises over this item may have changed in either
	// direction (a volatile on-demand dependency became a publishing
	// periodic one, or vice versa).
	for _, d := range e.dependents {
		od, ok := d.e.handler.(*onDemandHandler)
		if !ok {
			continue
		}
		od.mu.Lock()
		od.mstate.Store(newMemoState(d.e, od.health, od.pure))
		od.memo.Store(nil)
		od.mu.Unlock()
	}

	// The old handler is retired, the new one live: counted as a
	// removal plus a creation so handler conservation checks stay exact.
	env.stats.HandlersCreated.Add(1)
	env.stats.HandlersRemoved.Add(1)
	env.stats.Migrations.Add(1)

	// Dependents refresh against the new mechanism's published value.
	r.propagateLocked(e, now)

	// Journal the committed migration (identity no-ops returned early
	// and are never recorded); replaying it at recovery reproduces the
	// item's final mechanism. The window is only meaningful for
	// periodic targets.
	jw := clock.Duration(0)
	if to == PeriodicMechanism {
		jw = window
	}
	env.journalRecord(JournalOp{Op: JournalMigrate, Registry: r.id, Kind: kind, To: to, Window: jw})
	return nil
}

// adaptCompute runs an AdaptSpec compute factory with panic recovery.
func adaptCompute(what string, f func(*BuildContext) ComputeFunc, ctx *BuildContext) (fn ComputeFunc, err error) {
	defer recoverCompute("adapt "+what, &err)
	fn = f(ctx)
	if fn == nil && err == nil {
		err = fmt.Errorf("core: AdaptSpec %s factory returned nil compute", what)
	}
	return fn, err
}

// adaptWindowCompute runs the AdaptSpec periodic factory with panic
// recovery.
func adaptWindowCompute(f func(*BuildContext) WindowComputeFunc, ctx *BuildContext) (fn WindowComputeFunc, err error) {
	defer recoverCompute("adapt periodic", &err)
	fn = f(ctx)
	if fn == nil && err == nil {
		err = fmt.Errorf("core: AdaptSpec periodic factory returned nil compute")
	}
	return fn, err
}

// TrackReads installs a read counter on an included item: every
// Handle/Subscription read and every Registry.Peek of the item
// increments it. The counter is sharded, so tracking adds one predicted
// branch plus one striped increment to the read path; untracked items
// pay the branch alone. Tracking survives migrations (it lives on the
// entry, not the handler) and ends when the item is excluded. It
// returns false if the item is not included.
func (r *Registry) TrackReads(kind Kind) bool {
	e := r.entryOf(kind)
	if e == nil {
		return false
	}
	if e.track.Load() == nil {
		e.track.CompareAndSwap(nil, new(ShardedCounter))
	}
	return true
}

// AccessStats samples an included item's access-vs-update economics:
// reads is the number of value reads since TrackReads installed the
// counter (0 if tracking was never enabled), updates is the item's
// publication version — a monotonic count of its publications — so a
// controller differencing two samples gets the read and update rates of
// the interval. ok is false if the item is not included.
func (r *Registry) AccessStats(kind Kind) (reads int64, updates uint64, ok bool) {
	e := r.entryOf(kind)
	if e == nil {
		return 0, 0, false
	}
	if t := e.track.Load(); t != nil {
		reads = t.Load()
	}
	return reads, e.version.Load(), true
}

// DepUpdates sums the publication versions of an included item's
// direct dependencies — a mechanism-independent measure of how often
// the item's inputs change. The item's own version (AccessStats) counts
// what the current mechanism publishes instead: per-cadence for
// periodic, per-refresh for triggered, and nothing at all for
// on-demand, so a controller pricing alternative mechanisms from the
// own-version rate would see an on-demand item's input churn as zero
// and flap. ndeps reports the dependency count so callers can fall back
// to the own version for source items (whose inputs are events, not
// dependencies). ok is false if the item is not included.
func (r *Registry) DepUpdates(kind Kind) (sum uint64, ndeps int, ok bool) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	e := r.entryLocked(kind)
	if e == nil {
		return 0, 0, false
	}
	for i := range e.deps {
		sum += e.deps[i].h.e.version.Load()
	}
	return sum, len(e.deps), true
}

// Window returns the update window of an included periodic item, or
// ok == false for excluded items and non-periodic mechanisms.
func (r *Registry) Window(kind Kind) (clock.Duration, bool) {
	e := r.entryOf(kind)
	if e == nil {
		return 0, false
	}
	if ph, ok := e.getHandler().(*periodicHandler); ok {
		return ph.window, true
	}
	return 0, false
}

// Adaptable reports whether the included item declares alternative
// maintenance forms (Definition.Adapt) and, if so, whether its
// on-demand form is memoizable (AdaptSpec.Pure). ok is false for
// excluded items and for items without an AdaptSpec.
func (r *Registry) Adaptable(kind Kind) (pure bool, ok bool) {
	e := r.entryOf(kind)
	if e == nil || e.def.Adapt == nil {
		return false, false
	}
	return e.def.Adapt.Pure, true
}
