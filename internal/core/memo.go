package core

// Versioned read path for on-demand metadata (WithMemoizedOnDemand).
//
// The paper's on-demand mechanism recomputes on every access — exact,
// but a popular item is recomputed redundantly by every reader, and the
// item mutex serializes them. For items whose compute is a pure
// function of their declared dependencies (Definition.Pure), the exact
// value can be served without recomputing as long as no dependency has
// republished: the item caches (value, err) together with a stamp —
// the env write epoch plus the publication version of every dependency,
// captured BEFORE the compute ran — and a read that finds every stamp
// component unchanged returns the cache with zero mutexes and zero
// compute.
//
// Exactness argument. Versions are bumped after the new snapshot is
// stored, and stamps are captured before the compute reads its inputs.
// So if a dependency's version still equals the stamp at read time, the
// dependency has not republished since before the compute started,
// which means the compute read exactly the values a recompute would
// read now — and a pure compute of equal inputs gives an equal result.
// If a dependency republished between stamp capture and the compute's
// input reads, the stamp is already stale and the memo simply never
// revalidates (versions are monotonic and never reused); the next read
// recomputes with fresh stamps. The memo can serve stale hits never,
// spurious misses at worst.
//
// Stampability. A dependency is stampable when its served value cannot
// change without a version bump: static (never changes), periodic and
// triggered (every publish bumps), and memoized on-demand items
// (every recompute bumps; their own memo validity is checked
// recursively, because their version only moves when they actually
// recompute). A volatile — or pure but unmemoized — on-demand
// dependency is NOT stampable: it recomputes on access without any
// publication, so a stamp over it proves nothing. An item with such a
// dependency keeps recompute-per-access even when declared Pure.
//
// Misses coalesce (singleflight): the first reader through the item
// mutex becomes the leader and computes outside the mutex; concurrent
// readers find the in-flight marker and wait on its done channel, so N
// readers of one miss cost one compute (OnDemandComputes +1,
// CoalescedReads +N-1). The leader composes with the PR 4 containment
// layer unchanged — boundedCompute's generation fence, breaker
// bookkeeping, quarantined items serving last-good + ErrStale — and a
// coalesced error is delivered to every waiter but counted once.

// memoSnapshot is one memoized (value, error) with the stamp it was
// computed under. Immutable once published.
type memoSnapshot struct {
	val Value
	err error
	// epoch is the env write epoch at stamp capture; any structural
	// change (subscribe/unsubscribe/redefine) invalidates the memo.
	epoch uint64
	// depVers are the dependencies' publication versions at stamp
	// capture, in memoState.deps order.
	depVers []uint64
}

// memoState is the immutable read-path state of a memoized on-demand
// item, published through an atomic pointer at start so the lock-free
// fast path can reach env, deps, and breaker without touching the item
// mutex. nil while memoization is not engaged.
type memoState struct {
	env    *Env
	health *itemHealth
	// deps is the flattened declared dependency list (every item of
	// every dep group, inclusion order). Dependencies outlive the
	// item's inclusion — each holds a reference taken at include time —
	// so they stay in service for the item's life.
	deps []*item
	// depMemo is parallel to deps: non-nil where the dependency is
	// itself a memoized on-demand item, whose memo validity must be
	// checked recursively on revalidation.
	depMemo []*item
}

// newMemoState decides memo engagement for an on-demand policy and
// builds its read-path state, or returns nil to keep
// recompute-per-access. Called under the component lock (the edges are
// stable) and after every dependency has started (depth-first
// inclusion), so dependency engagement is already decided. Migration
// re-runs this for the policy it installs — and for the direct
// dependents of a migrated item, whose stampability premises may have
// changed — passing the purity of the form currently installed
// (Definition.Pure at start, AdaptSpec.Pure after a migration to
// on-demand).
func newMemoState(it *item, pure bool) *memoState {
	if !memoEligible(it, pure) {
		return nil
	}
	ms := &memoState{env: it.reg.env, health: it.breaker()}
	for _, ed := range it.deps() {
		de := ed.h.it
		var memoized *item
		if de.Mechanism() == OnDemandMechanism {
			memoized = de
		}
		ms.deps = append(ms.deps, de)
		ms.depMemo = append(ms.depMemo, memoized)
	}
	return ms
}

// memoEligible reports whether an on-demand form of it with the given
// purity is memoized: the env memoizes, the form is pure, and every
// dependency is stampable — no on-demand dependency lacks a memo of its
// own. The component lock must be held.
func memoEligible(it *item, pure bool) bool {
	if !it.reg.env.memoOnDemand || !pure {
		return false
	}
	for _, ed := range it.deps() {
		if de := ed.h.it; de.Mechanism() == OnDemandMechanism && de.side.Load().mstate.Load() == nil {
			return false
		}
	}
	return true
}

// rememo re-decides an on-demand item's memo engagement and drops its
// memo; a no-op for the other mechanisms. The component lock must be
// held.
func (it *item) rememo() {
	if it.Mechanism() != OnDemandMechanism {
		return
	}
	sd := it.side.Load()
	it.mu.Lock()
	sd.mstate.Store(newMemoState(it, it.pure))
	sd.memo.Store(nil)
	it.mu.Unlock()
}

// memoValid reports whether m may be served. Lock-free; called on every
// read of a memoized item.
func (ms *memoState) memoValid(m *memoSnapshot) bool {
	if ms.health.isQuarantined() {
		return false
	}
	if m.epoch != ms.env.writeEpoch.Load() {
		return false
	}
	for i, de := range ms.deps {
		if de.version.Load() != m.depVers[i] {
			return false
		}
		if od := ms.depMemo[i]; od != nil && !od.memoCurrent() {
			return false
		}
	}
	return true
}

// memoCurrent reports whether it currently holds a servable memo; used
// for the recursive dependency check. A memoized dependency whose memo
// is invalid may serve a different value on its next read without
// bumping its version first, so a parent stamp over it only holds
// while the dependency's own memo holds.
func (it *item) memoCurrent() bool {
	sd := it.side.Load()
	if sd == nil {
		return false
	}
	ms := sd.mstate.Load()
	if ms == nil {
		return false
	}
	m := sd.memo.Load()
	return m != nil && ms.memoValid(m)
}

// captureStamps reads the write epoch and every dependency version
// into a memo snapshot still waiting for its value. Must be called
// before the compute runs (see the exactness argument above).
func (ms *memoState) captureStamps() *memoSnapshot {
	m := &memoSnapshot{epoch: ms.env.writeEpoch.Load()}
	if len(ms.deps) > 0 {
		m.depVers = make([]uint64, len(ms.deps))
		for i, de := range ms.deps {
			m.depVers[i] = de.version.Load()
		}
	}
	return m
}

// memoFlight is one in-flight coalesced compute: the leader publishes
// the result into val/err and closes done; waiters block on done and
// read the result (the channel close orders the writes before the
// reads).
type memoFlight struct {
	done chan struct{}
	val  Value
	err  error
}

// deliver publishes the result to every waiter.
func (f *memoFlight) deliver(v Value, err error) {
	f.val, f.err = v, err
	close(f.done)
}
