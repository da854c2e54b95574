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
// Registry.Migrate gives an in-use item the equivalent compute under a
// different mechanism — atomically under the dependency-scope lock,
// without disturbing subscribers — so a controller (internal/adapt) can
// follow the workload instead of pinning the definition-time guess.
//
// A definition opts in by declaring an AdaptSpec: the same metadata
// quantity expressed as an on-demand compute, a triggered compute,
// and/or a periodic window compute. The factories receive the item's
// original BuildContext, so every form reads the same resolved
// dependency handles and the forms cannot drift structurally.
//
// The mechanism is a policy of the item, not its type (item.go), so a
// migration is a swap of the policy fields on the item that stays:
//
//   - subscribers, readers in flight, the breaker and the last-good
//     value are untouched, because the object they belong to is. A
//     quarantined item migrates quarantined, keeps serving the same
//     stale value, and its next probe — even one already fired —
//     recovers through the new mechanism.
//   - maintenance dispatched under the old policy (a queued tick, a
//     memoized read still computing) finds the policy replaced when it
//     takes the item mutex and publishes nothing.
//   - exactness machinery: the migration bumps the item's publication
//     version once and the env write epoch, so memo stamps and cached
//     propagation plans can never survive it; dependent delta
//     aggregates are re-anchored in two phases so their accumulators
//     re-fold against the value the new mechanism publishes.
//
// What cannot migrate: static items (nothing to maintain), delta
// aggregates (the item IS the delta machinery; re-expressing it per
// mechanism is not meaningful), items without an AdaptSpec, and
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

	it := r.entryLocked(kind)
	if it == nil {
		return fmt.Errorf("%w: %s/%s", ErrUnsubscribed, r.id, kind)
	}
	sl := it.slotOf() // good for the whole call: the scope lock excludes Define
	spec := sl.adapt
	if spec == nil {
		return fmt.Errorf("%w: %s/%s declares no AdaptSpec", ErrNotMigratable, r.id, kind)
	}
	if sl.rareFields().delta != nil {
		return fmt.Errorf("%w: %s/%s is a delta aggregate", ErrNotMigratable, r.id, kind)
	}
	if it.Mechanism() == StaticMechanism {
		return fmt.Errorf("%w: %s/%s is static", ErrNotMigratable, r.id, kind)
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
	if it.Mechanism() == to && (to != PeriodicMechanism || it.win.Load().window == window) {
		return nil
	}

	// Run the factory before touching the item, so a panicking (or
	// nil-returning) factory leaves it untouched. The context is a fresh
	// view of the item's edge slice: the same dependency handles the
	// original Build saw.
	bctx := &BuildContext{reg: r, def: it.def, deps: it.deps(), ngroups: it.ngroups}
	var fn ComputeFunc
	var win *windowPolicy
	var err error
	switch to {
	case OnDemandMechanism:
		fn, err = adaptCompute("on-demand", spec.OnDemand, bctx)
	case TriggeredMechanism:
		fn, err = adaptCompute("triggered", spec.Triggered, bctx)
	case PeriodicMechanism:
		win = &windowPolicy{it: it, window: window, winStart: now}
		win.compute, err = adaptWindowCompute(spec.Periodic, bctx)
	}
	if err != nil {
		return fmt.Errorf("migrating %s/%s to %v: %w", r.id, kind, to, err)
	}

	// Swap the policy under the item mutex (the scope lock is already
	// held): whatever maintenance is in flight has finished, and
	// whatever was dispatched under the old policy finds it gone. The
	// new policy then publishes its initial value — computed on the
	// caller's goroutine exactly like an include-time initial compute,
	// and therefore never deadline-bounded — unless the item is
	// quarantined: then the stale publication stands, the cadence stays
	// unscheduled, and the armed probe owns recovery, now through the
	// new mechanism. Readers switch over without a gap: a target that
	// publishes stores its snapshot before the mechanism changes, an
	// on-demand target changes it (its read state ready) before the
	// snapshot is withdrawn (see item.read). Either way the item's
	// version moves exactly once.
	it.mu.Lock()
	quarantined := it.breaker().isQuarantined()
	it.disarm()
	it.fn, it.pure = fn, spec.Pure
	it.win.Store(win)
	switch {
	case to == OnDemandMechanism:
		sd := it.sideLocked()
		sd.flight = nil // an earlier on-demand period's, if a read still computes
		sd.mstate.Store(newMemoState(it, it.pure))
		it.mech.Store(int32(to))
		if !quarantined {
			it.cur.Store(nil)
		}
		it.bumpVersion()
	case quarantined:
		it.mech.Store(int32(to))
		it.bumpVersion()
	default:
		it.accept(it.snapshot(now, false))
		it.mech.Store(int32(to))
	}
	if sd := it.side.Load(); sd != nil && to != OnDemandMechanism {
		sd.mstate.Store(nil)
		sd.memo.Store(nil)
	}
	if !quarantined {
		it.arm(now)
	}
	it.mu.Unlock()
	// The structural bump covers cached plans (the item joined or left
	// the triggered set) and env-wide memo epochs.
	bumpStruct(r)

	// Re-anchor dependent delta aggregates in two phases: first drop
	// every tracked edge (so this item's deltaDeps drains to zero even
	// when several aggregates track it), then reset and re-register each
	// aggregate. The 0 -> 1 transition in startLocked re-anchors
	// deltaLast at the value the new mechanism published, and
	// eligibility is re-decided against it (an on-demand target forces
	// dependents onto the exact fold path). Accumulators are invalidated;
	// the propagation below re-folds them. A dependent declaring this
	// item twice is listed twice: the drop-and-reset pass is idempotent,
	// and the re-register pass skips an aggregate that is eligible again.
	for _, d := range it.dependents() {
		if ds := d.it.delta(); ds != nil {
			ds.stopLocked()
			ds.pending = ds.pending[:0]
			ds.poisoned = false
			ds.valid = false
		}
	}
	for _, d := range it.dependents() {
		if ds := d.it.delta(); ds != nil && !ds.eligible {
			ds.startLocked(env)
		}
		// Re-decide memo engagement of direct on-demand dependents:
		// their stampability premises over this item may have changed in
		// either direction (a volatile on-demand dependency became a
		// publishing periodic one, or vice versa).
		d.it.rememo()
	}

	// No handler was retired or created, but a migration has always
	// counted as a removal plus a creation, and conservation checks
	// (created - removed = included) hold either way.
	env.stats.HandlersCreated.Add(1)
	env.stats.HandlersRemoved.Add(1)
	env.stats.Migrations.Add(1)

	// Dependents refresh against the new mechanism's published value.
	env.announceLocked(now, it)

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
// pay the branch alone. Tracking survives migrations (they change the
// item's policy, not the item) and ends when the item is excluded. It
// returns false if the item is not included.
func (r *Registry) TrackReads(kind Kind) bool {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	it := r.entryLocked(kind)
	if it == nil {
		return false
	}
	if sd := it.sideLocked(); sd.track.Load() == nil {
		sd.track.Store(new(shardedCounter))
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
	it := r.entryOf(kind)
	if it == nil {
		return 0, 0, false
	}
	if sd := it.side.Load(); sd != nil && sd.track.Load() != nil {
		reads = sd.track.Load().Load()
	}
	return reads, it.version.Load(), true
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
	it := r.entryLocked(kind)
	if it == nil {
		return 0, 0, false
	}
	for _, ed := range it.deps() {
		sum += ed.h.it.version.Load()
	}
	return sum, int(it.nedges), true
}

// Window returns the update window of an included periodic item, or
// ok == false for excluded items and non-periodic mechanisms.
func (r *Registry) Window(kind Kind) (clock.Duration, bool) {
	if it := r.entryOf(kind); it != nil {
		if w := it.win.Load(); w != nil {
			return w.window, true
		}
	}
	return 0, false
}

// Adaptable reports whether the included item declares alternative
// maintenance forms (Definition.Adapt) and, if so, whether its
// on-demand form would be memoized: it declares AdaptSpec.Pure, the env
// memoizes (WithMemoizedOnDemand), and no on-demand dependency lacks a
// memo of its own — the test newMemoState applies. ok is false for
// excluded items and for items without an AdaptSpec.
func (r *Registry) Adaptable(kind Kind) (pure bool, ok bool) {
	// The scope lock keeps the table (Define takes it) and the edges
	// stable.
	sc := r.env.lockScope(r)
	defer sc.unlock()
	if i, ok := r.searchSlot(kind); ok && r.slots[i].entry != nil && r.slots[i].adapt != nil {
		return memoEligible(r.slots[i].entry, r.slots[i].adapt.Pure), true
	}
	return false, false
}
