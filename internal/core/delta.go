package core

import (
	"fmt"
	"unsafe"

	"repro/internal/clock"
)

// Incremental delta propagation (ROADMAP item 4).
//
// The paper's triggered maintenance recomputes a dependent from scratch
// on every upstream publication, so an aggregate over N fan-in edges
// pays O(N) per fire. The delta channel removes that cost for
// invertible aggregates: every publishing item records, per
// publication, the (old, new) float transition of its value, and a
// dependent built with NewDeltaAggregate folds those transitions into a
// running accumulator — sum: acc + new - old — in O(1) per fire,
// publishing through the normal version-bump path so PR 5 memo stamps
// stay exact.
//
// The contract is opt-in-with-exact-fallback, like Pure/memoization:
// whenever the O(1) path cannot be proven byte-identical to a full
// recompute, the item falls back to the fold. The fallback matrix:
//
//   - the env disables the channel (WithoutDeltaPropagation);
//   - any fan-in edge lacks a delta form (an on-demand dependency never
//     publishes, so its changes are invisible to the channel);
//   - the accumulator is invalid (no successful fold yet, a prior
//     compute error, or the item was quarantined);
//   - a dependency publication could not be expressed as a pair
//     (error/non-finite value, probe recovery without a tracked
//     predecessor, NotifyChanged) — the dependent is poisoned;
//   - a structural change advanced the env write epoch since the
//     accumulator was folded (the same conservative stamp the memoized
//     read path uses; structural bumps also reset cached propagation
//     plans);
//   - the spec declares Retract=nil (non-invertible, e.g. Min) and the
//     refresh carries pairs to retract;
//   - Retract reports it cannot retract (ok=false);
//   - the periodic rebase interval expired (float drift bound).
//
// Consistency of the pair stream: pairs are derived under the
// dependency-scope lock from the per-item deltaLast field — "the value
// every delta accumulator over this edge currently reflects" — not
// captured at publish time. Publishes happen under the item's own
// mutex only (scope batches publish before locking the scope), so two
// pool batches can publish v1->v2 and v2->v3 in either order; deriving
// the pair as (deltaLast, currently-published) at the locked notify
// site makes the stream immune to that reordering. For the same reason
// the fold of an eligible aggregate reads deltaLast rather than the
// live snapshot: the accumulator then reflects exactly the prefix of
// the pair stream it has consumed, and a publication racing the fold is
// delivered as the next pair instead of being half-visible. At
// quiescence deltaLast equals the live value, so fold and live reads
// agree wherever the model-based harness compares states.

// DeltaAcc is the accumulator of a delta aggregate: up to three float64
// moments (e.g. count, sum, sum of squares). Fixed-size so the delta
// path moves it by value, allocation-free.
type DeltaAcc [3]float64

// deltaPair is one (old, new) value transition published along a
// dependency edge.
type deltaPair struct {
	Old float64
	New float64
}

// DeltaSpec declares the delta form of an aggregate item. Combine folds
// one dependency value into the accumulator; Retract removes one
// (returning ok=false when it cannot, which forces the fallback);
// Finish extracts the published value (nil means acc[0]). A
// non-invertible aggregate (Min, Max, ...) declares Retract=nil and
// takes the fallback whenever a refresh carries pairs.
type DeltaSpec struct {
	Combine func(acc DeltaAcc, v float64) DeltaAcc
	Retract func(acc DeltaAcc, v float64) (DeltaAcc, bool)
	Finish  func(acc DeltaAcc) float64

	// RebaseEvery bounds float drift: after this many consecutive O(1)
	// applications the next refresh re-folds from scratch (counted as
	// DeltaRebases, not DeltaFallbacks). 0 selects
	// DefaultDeltaRebaseEvery; negative disables rebasing (exact
	// domains, e.g. integer-valued counters).
	RebaseEvery int
}

// DefaultDeltaRebaseEvery is the rebase interval used when a DeltaSpec
// leaves RebaseEvery at 0.
const DefaultDeltaRebaseEvery = 1024

// finishAcc extracts the published value from an accumulator.
func (s *DeltaSpec) finishAcc(a DeltaAcc) float64 {
	if s.Finish != nil {
		return s.Finish(a)
	}
	return a[0]
}

// rebaseLimit resolves the spec's rebase interval (0 = never).
func (s *DeltaSpec) rebaseLimit() int {
	if s.RebaseEvery == 0 {
		return DefaultDeltaRebaseEvery
	}
	if s.RebaseEvery < 0 {
		return 0
	}
	return s.RebaseEvery
}

// DeltaSum sums the fan-in values; fully invertible and exact on
// integer-valued domains (rebasing disabled there by the caller via
// RebaseEvery < 0 if desired).
func DeltaSum() *DeltaSpec {
	return &DeltaSpec{
		Combine: func(a DeltaAcc, v float64) DeltaAcc { a[0] += v; return a },
		Retract: func(a DeltaAcc, v float64) (DeltaAcc, bool) { a[0] -= v; return a, true },
	}
}

// DeltaCount counts the fan-in edges. A value transition leaves the
// count unchanged (Combine adds one, Retract removes one), so the delta
// path is trivially exact.
func DeltaCount() *DeltaSpec {
	return &DeltaSpec{
		Combine:     func(a DeltaAcc, v float64) DeltaAcc { a[0]++; return a },
		Retract:     func(a DeltaAcc, v float64) (DeltaAcc, bool) { a[0]--; return a, true },
		RebaseEvery: -1,
	}
}

// DeltaMean maintains (count, sum) and finishes to sum/count (0 when
// empty).
func DeltaMean() *DeltaSpec {
	return &DeltaSpec{
		Combine: func(a DeltaAcc, v float64) DeltaAcc { a[0]++; a[1] += v; return a },
		Retract: func(a DeltaAcc, v float64) (DeltaAcc, bool) { a[0]--; a[1] -= v; return a, true },
		Finish: func(a DeltaAcc) float64 {
			if a[0] == 0 {
				return 0
			}
			return a[1] / a[0]
		},
	}
}

// DeltaVar maintains (count, sum, sum of squares) and finishes to the
// population variance (0 when empty). Squared moments drift fastest, so
// the default rebase interval applies.
func DeltaVar() *DeltaSpec {
	return &DeltaSpec{
		Combine: func(a DeltaAcc, v float64) DeltaAcc { a[0]++; a[1] += v; a[2] += v * v; return a },
		Retract: func(a DeltaAcc, v float64) (DeltaAcc, bool) { a[0]--; a[1] -= v; a[2] -= v * v; return a, true },
		Finish: func(a DeltaAcc) float64 {
			if a[0] == 0 {
				return 0
			}
			m := a[1] / a[0]
			return a[2]/a[0] - m*m
		},
	}
}

// DeltaMin tracks the minimum. Minima are not invertible — retracting
// the current minimum would need the runner-up — so Retract is nil and
// any refresh carrying pairs takes the exact fold fallback; only
// pair-free refreshes (event fires) use the O(1) path.
func DeltaMin() *DeltaSpec {
	return &DeltaSpec{
		Combine: func(a DeltaAcc, v float64) DeltaAcc {
			if a[1] == 0 || v < a[0] {
				a[0] = v
			}
			a[1]++
			return a
		},
	}
}

// deltaState is the per-item state of a delta aggregate. Everything
// except spec/fan (immutable after build) is guarded by the
// dependency-scope component lock, which every refresh and every pair
// push already holds.
type deltaState struct {
	spec *DeltaSpec
	fan  []depEdge // the item's edge slice: the fan-in, declaration order

	// acc is the running accumulator; valid reports whether it reflects
	// a successful fold plus the consumed prefix of the pair stream.
	acc   DeltaAcc
	valid bool
	// eligible reports that every fan-in edge has a delta form (no
	// on-demand dependency) and the env has the channel enabled; fixed
	// at start.
	eligible bool
	// epoch is the env write epoch the accumulator was folded under; a
	// structural change anywhere invalidates it (conservative, like
	// memo stamps).
	epoch uint64
	// applied counts O(1) applications since the last fold, against the
	// rebase limit (0 = never rebase).
	applied int
	rebase  int

	// pending and poisoned are the delta input of the next refresh:
	// pairs pushed by dependency publications, and the mark set when a
	// publication could not be expressed as a pair.
	pending  []deltaPair
	poisoned bool
}

// NewDeltaAggregate builds a triggered handler that maintains the
// aggregate declared by the definition's Delta spec over all resolved
// dependencies (flattened in declaration order). It refreshes like any
// triggered handler — on dependency publications and declared events —
// but consumes the delta channel: an eligible refresh applies the
// pending (old, new) pairs in O(1) each instead of re-folding the full
// fan-in, falling back to the byte-identical fold per the matrix in the
// package comment.
func NewDeltaAggregate(ctx *BuildContext) (Handler, error) {
	i, _ := ctx.reg.searchSlot(ctx.Kind()) // Build runs under the scope lock
	spec := ctx.reg.slots[i].rareFields().delta
	if spec == nil {
		return nil, fmt.Errorf("core: NewDeltaAggregate on %s/%s: definition declares no Delta spec",
			ctx.reg.id, ctx.Kind())
	}
	if spec.Combine == nil {
		return nil, fmt.Errorf("core: NewDeltaAggregate on %s/%s: Delta spec without Combine",
			ctx.reg.id, ctx.Kind())
	}
	// The item's side block and its delta state are one allocation (on a
	// breaker env bind moves the item to the breaker's block).
	side := &struct {
		itemSide
		deltaState
	}{deltaState: deltaState{spec: spec, fan: ctx.deps, rebase: spec.rebaseLimit()}}
	ds := &side.deltaState
	side.ds = ds
	it := newItem(TriggeredMechanism)
	it.side.Store(&side.itemSide)
	// The full recompute folds every fan-in value in declaration order,
	// first error wins. It returns the raw DeltaAcc; the item publishes
	// finishAcc of it (foldSnap), so fold and delta paths share one
	// Finish application and cannot diverge there.
	it.fn = func(clock.Time) (Value, error) {
		acc, err := ds.foldFrom(ds.eligible)
		if err != nil {
			return nil, err
		}
		return acc, nil
	}
	return it, nil
}

// foldLive is the probe's compute: the probe runs without the scope
// lock, so it folds the live snapshots, leaves the accumulator alone,
// and returns the finished float.
func (ds *deltaState) foldLive(clock.Time) (Value, error) {
	acc, err := ds.foldFrom(false)
	if err != nil {
		return nil, err
	}
	return ds.spec.finishAcc(acc), nil
}

// foldSnap wraps the result of a full fold in a snapshot to publish: a
// successful fold seeds the accumulator (stamped with epoch, the write
// epoch captured before the fold read its inputs) and yields the
// finished float; an error invalidates it and yields the error. The
// scope lock and the item mutex must be held.
func (ds *deltaState) foldSnap(a *snapAlloc, v Value, err error, epoch uint64) *valueSnapshot {
	if err == nil {
		if acc, ok := v.(DeltaAcc); ok {
			ds.acc = acc
			ds.valid = true
			ds.applied = 0
			ds.epoch = epoch
			return a.putFloat(ds.spec.finishAcc(acc))
		}
		err = fmt.Errorf("%w: delta aggregate fold returned %T, want DeltaAcc", errNotNumeric, v)
		v = nil
	}
	ds.valid = false
	return a.slot().set(v, err)
}

// refreshDelta is refresh for delta aggregates: consume the pending
// (old, new) pairs and apply them to the accumulator in O(1) each when
// the channel is provably exact, else fall back to the byte-identical
// full fold, which re-seeds the accumulator. The caller holds the
// dependency-scope lock (every refresh caller does), which guards the
// delta state.
func (it *item) refreshDelta(ds *deltaState, now clock.Time) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if !it.live {
		return
	}
	// Consume the delta input first — pairs and poison marks must not
	// leak into a later refresh — even when this refresh cannot use
	// them (quarantine below drops them and invalidates instead).
	pairs := ds.pending
	poisoned := ds.poisoned
	ds.pending = ds.pending[:0]
	ds.poisoned = false
	if it.breaker().isQuarantined() {
		// The stale publication stands (see refresh); the accumulator
		// no longer reflects the consumed pair stream.
		ds.valid = false
		return
	}
	env := it.reg.env
	stats := &env.stats
	stats.TriggeredUpdates.Add(1)
	// eligible is false on delta-off envs (startLocked), so one flag
	// covers both the kill-switch and the structural conditions.
	if ds.eligible && ds.valid && !poisoned &&
		ds.epoch == env.writeEpoch.Load() &&
		(len(pairs) == 0 || ds.spec.Retract != nil) {
		if ds.rebase > 0 && ds.applied >= ds.rebase {
			// Drift bound: re-fold from scratch on schedule.
			stats.DeltaRebases.Add(1)
			it.publish(now, it.snapshot(now, true))
			return
		}
		if acc, ok := ds.applyPairs(ds.acc, pairs); ok {
			stats.DeltaFires.Add(1)
			ds.acc = acc
			ds.applied++
			// No compute ran, so there is nothing for the breaker to
			// judge: publish through the normal snapshot-then-version
			// path, so memo stamps over this item stay exact.
			it.accept(it.snaps.putFloat(ds.spec.finishAcc(acc)))
			return
		}
		// Retract refused (or a spec callback panicked) mid-apply: the
		// accumulator is unusable.
		ds.valid = false
	}
	stats.DeltaFallbacks.Add(1)
	it.publish(now, it.snapshot(now, true))
}

// foldFrom folds the fan-in into a fresh accumulator. With useLast,
// tracked dependencies are read through deltaLast (see the package
// comment on consistency); otherwise — ineligible aggregates, probe
// recovery without the scope lock, and any dependency in an
// untracked/error state — the live value is read exactly like a
// hand-written compute would.
func (ds *deltaState) foldFrom(useLast bool) (DeltaAcc, error) {
	var acc DeltaAcc
	for i := range ds.fan {
		h := &ds.fan[i].h
		var f float64
		if useLast && h.it.deltaLastOK {
			f = h.it.deltaLast
		} else {
			var err error
			f, err = h.Float()
			if err != nil {
				return DeltaAcc{}, err
			}
		}
		acc = ds.spec.Combine(acc, f)
	}
	return acc, nil
}

// applyPairs applies the pending pairs to acc: Combine the new value,
// Retract the old. A panic in user spec code is converted to ok=false
// so the refresh falls back to the (equally recovered) fold.
func (ds *deltaState) applyPairs(acc DeltaAcc, pairs []deltaPair) (out DeltaAcc, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	spec := ds.spec
	for _, p := range pairs {
		acc = spec.Combine(acc, p.New)
		acc, ok = spec.Retract(acc, p.Old)
		if !ok {
			return acc, false
		}
	}
	return acc, true
}

// startLocked fixes eligibility and registers the aggregate on the
// delta channel of its dependencies. Called from the item's start
// under the dependency-scope lock, after the dependencies have
// committed and started.
func (ds *deltaState) startLocked(env *Env) {
	if env.deltaOff {
		return
	}
	for i := range ds.fan {
		if ds.fan[i].h.Mechanism() == OnDemandMechanism {
			// An on-demand dependency recomputes per access and never
			// publishes: its changes are invisible to the delta channel,
			// so the whole aggregate stays on the fold path.
			return
		}
	}
	ds.eligible = true
	for i := range ds.fan {
		de := ds.fan[i].h.it
		de.deltaDeps++
		if de.deltaDeps == 1 {
			// First tracked consumer of this edge: anchor deltaLast to
			// the currently published value so the next publication
			// forms a valid pair.
			de.deltaLast, de.deltaLastOK = currentFloat(de)
		}
	}
}

// stopLocked deregisters the aggregate from its dependencies' delta
// channels and leaves it ineligible, so a second call is a no-op.
// Called from releaseLocked under the dependency-scope lock, before the
// dependencies themselves are released, and from migration.
func (ds *deltaState) stopLocked() {
	if !ds.eligible {
		return
	}
	ds.eligible = false
	for i := range ds.fan {
		ds.fan[i].h.it.deltaDeps--
	}
}

// currentFloat reads the item's currently published value as a
// delta-trackable float: ok only for a clean, finite numeric value.
func currentFloat(it *item) (float64, bool) {
	v, err := it.Value()
	if err != nil {
		return 0, false
	}
	f, err := Float(v)
	if err != nil || f != f || f-f != 0 { // NaN, ±Inf
		return 0, false
	}
	return f, true
}

// notifyDeltaLocked delivers the item's latest publication to the
// delta channel: it derives the (deltaLast, current) transition and
// pushes it — or a poison mark, when the publication is not a clean
// finite float — to every delta-eligible dependent, once per declared
// edge. The dependency-scope lock must be held; callers gate on
// it.deltaDeps > 0 so untracked items pay one int load.
func notifyDeltaLocked(it *item) {
	f, good := currentFloat(it)
	if good && it.deltaLastOK && f == it.deltaLast {
		// Republication of the identical value (or no publication since
		// the last notify): nothing to deliver.
		return
	}
	pair := good && it.deltaLastOK
	for _, d := range it.dependents() {
		ds := d.it.delta()
		if ds == nil || !ds.eligible {
			continue
		}
		if pair {
			ds.pending = append(ds.pending, deltaPair{Old: it.deltaLast, New: f})
		} else {
			// No trackable predecessor (error value, first good value
			// after an error, NotifyChanged on a non-float): the
			// accumulators over this edge cannot be patched — poison
			// them onto the fold.
			ds.poisoned = true
		}
	}
	it.deltaLast, it.deltaLastOK = f, good
}

// --- allocation-free float publication ---

// eface mirrors the runtime layout of an empty interface. putFloat
// writes a float64 eface by hand so the delta hot path publishes
// without the boxing allocation `Value(f)` would cost per fire.
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// float64EfaceType is the runtime type word of a float64 eface,
// captured once from an ordinary boxed value.
var float64EfaceType = func() unsafe.Pointer {
	var v Value = float64(0)
	return (*eface)(unsafe.Pointer(&v)).typ
}()

// putFloat publishes a clean float64 value: the float is stored in the
// slot's inline fbox and the eface points at it, so no per-publish heap
// allocation occurs (the slot's chunk is the only allocation, amortized
// over chunkSlots). The data pointer is an interior pointer into the
// live chunk, which the GC tracks like any other; slots are never
// reused, so a reader holding the snapshot keeps the box alive.
func (a *snapAlloc) putFloat(f float64) *valueSnapshot {
	s := a.slot()
	s.fbox = f
	ef := (*eface)(unsafe.Pointer(&s.val))
	ef.typ = float64EfaceType
	ef.data = unsafe.Pointer(&s.fbox)
	return s
}
