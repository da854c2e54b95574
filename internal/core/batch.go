package core

import (
	"slices"

	"repro/internal/clock"
)

// Batched tick dispatch (Section 4.3 at scale).
//
// All periodic items of an Env share one bucketed deadline scheduler
// (clock.Scheduler): window policies due at the same instant arrive
// here as a single batch behind a single clock event, in arm order —
// which preserves the virtual clock's same-instant tie-break exactly
// as if each item still owned a private ticker. The dispatch then
//
//  1. re-arms every task for its next boundary (on the clock
//     goroutine, like the old per-handler ticker reschedule, so pool
//     workers lagging behind the clock never lose future ticks),
//  2. groups the due policies by dependency-scope root, and
//  3. runs one scope batch per group — one Updater.Submit instead of
//     one per item.
//
// A scope batch publishes all of its windows first and then runs
// trigger propagation once over the merged seed set, so a triggered
// item depending on k same-boundary periodic items refreshes once per
// instant, not k times. Coalescing preserves quiescent values: every
// refresh is an idempotent function of its dependencies' current
// values and the shared instant, propagation still runs in
// topological order, and the single pass reads all newly published
// windows — only the redundant intermediate refreshes disappear.
//
// Lock footprint of the batched tick path: the dispatch itself, which
// runs on the clock goroutine, takes no item mutex at all — an item's
// mutex is held across its window compute, and waiting for it here
// would stall every boundary and probe of the env behind one slow
// compute (and, on the virtual clock, deadlock a compute whose release
// needs time to advance). Publishing takes the item mutex per item
// around the window compute, or leaves the boundary to a compute still
// in flight (see item.tick); propagation then takes the
// dependency-scope lock(s) once per batch — no item mutex is held while
// any structural lock is taken, and no structural lock is held while a
// window computes.

// tickGroup collects the due window policies of one dependency-scope
// root. The groups live in Env.tickGroups, reused across dispatches
// under tickMu.
type tickGroup struct {
	root *component
	ws   []*windowPolicy
}

// dispatchTicks is the Env's scheduler callback: it receives every
// window policy (and recovery probe) due at instant now, in arm order.
func (env *Env) dispatchTicks(now clock.Time, due []*clock.Task) {
	// Re-arm first, in batch order: the scheduler ignores re-arms of
	// tasks a concurrent unsubscribe has canceled, and arming before
	// the (possibly pooled, possibly lagging) update work runs keeps
	// the boundary cadence anchored to the clock, exactly like the old
	// ticker's clock-goroutine reschedule.
	sched := env.scheduler()
	for _, t := range due {
		switch d := t.Data.(type) {
		case *windowPolicy:
			sched.At(now.Add(d.window), t)
		case *itemHealth:
			// Recovery probe of a quarantined item: not re-armed here —
			// the probe's outcome decides whether the breaker closes (a
			// window policy then re-arms its cadence) or the probe is
			// re-armed on doubled backoff.
			d.probeFired(now)
		}
	}

	_, inline := env.updater.(inlineUpdater)

	env.tickMu.Lock()
	defer env.tickMu.Unlock()
	// Group by dependency-scope root. The lock-free find may observe a
	// root that is merging away; that is safe — the batch's lockScope
	// revalidates — and at worst splits one logical scope into two
	// batches for this boundary.
	n := 0
	for _, t := range due {
		w, ok := t.Data.(*windowPolicy)
		if !ok {
			continue // recovery probe, handled above
		}
		// The item's registry is fixed from bind on, so this read needs
		// no mutex; an item stopped between fire and dispatch still
		// groups, and its tick does nothing.
		root := find(&w.it.reg.comp)
		idx := -1
		for i := 0; i < n; i++ {
			if env.tickGroups[i].root == root {
				idx = i
				break
			}
		}
		if idx < 0 {
			if n < len(env.tickGroups) {
				env.tickGroups[n].root = root
				env.tickGroups[n].ws = env.tickGroups[n].ws[:0]
			} else {
				env.tickGroups = append(env.tickGroups, tickGroup{root: root})
			}
			idx = n
			n++
		}
		env.tickGroups[idx].ws = append(env.tickGroups[idx].ws, w)
	}
	shed, _ := env.updater.(sheddableUpdater)
	for i := 0; i < n; i++ {
		g := &env.tickGroups[i]
		root := g.root
		g.root = nil // do not pin merged-away roots between boundaries
		if inline {
			// Inline updater: run the batch directly instead of paying
			// a closure allocation and dispatch for a Submit that
			// would execute it synchronously anyway.
			env.runTickBatch(g.ws, now)
		} else {
			ws := slices.Clone(g.ws)
			if shed != nil {
				// Scope batches are the sheddable class: under
				// backpressure a batch still queued when this scope's
				// next boundary arrives is superseded by it — the newer
				// batch recomputes the same cumulative windows at the
				// later instant, so coalescing costs latency, not data.
				// (The root pointer is only a coalescing key; a bounded
				// updater drops the reference when the batch runs or is
				// superseded.)
				shed.SubmitSheddable(root, func() { env.runTickBatch(ws, now) })
			} else {
				env.updater.Submit(func() { env.runTickBatch(ws, now) })
			}
		}
	}
}

// runTickBatch executes one scope batch: publish every due window,
// then propagate once over the merged seed set. It runs on the
// updater (a pool worker for large graphs).
func (env *Env) runTickBatch(ws []*windowPolicy, now clock.Time) {
	env.stats.ScopeBatches.Add(1)
	env.stats.BatchedTicks.Add(int64(len(ws)))

	var pubsArr [16]*item
	pubs := pubsArr[:0]
	var regsArr [8]*Registry
	regs := regsArr[:0]
	end := now
	for _, w := range ws {
		it := w.it
		pubEnd, ok := it.tick(w, now)
		if !ok || it.ndeps.Load() == 0 {
			// Nothing depends on the item: skip the scope lock
			// entirely (the key to parallel periodic updates on the
			// worker pool).
			continue
		}
		pubs = append(pubs, it)
		if pubEnd > end {
			end = pubEnd
		}
		dup := false
		for _, r := range regs {
			if r == it.reg {
				dup = true
				break
			}
		}
		if !dup {
			regs = append(regs, it.reg)
		}
	}
	if len(pubs) == 0 {
		return
	}

	// One propagation for the whole batch, under the scope lock(s). A
	// lagging pool batch may have clamped windows to a later end;
	// propagate at the latest published instant so dependents never see
	// a timestamp older than the values they read.
	sc := env.lockScope(regs...)
	env.announceLocked(end, pubs...)
	sc.unlock()
}

// announceLocked is the one publish-then-propagate step: it tells the
// dependents of the items in pubs, all of which just published (or
// had a change announced for them), and refreshes the affected closure
// once. The lock(s) of the component(s) holding pubs must be held; no
// item mutex may be.
func (env *Env) announceLocked(now clock.Time, pubs ...*item) {
	// Deliver every publication to the delta channel first: a dependent
	// shared by k same-boundary publishers then refreshes once with k
	// pairs pending (the same coalescing the merged seed set gives the
	// refresh itself).
	for _, it := range pubs {
		if it.deltaDeps > 0 {
			notifyDeltaLocked(it)
		}
	}
	// Seeds — the dependents of every published item — go into the
	// root's scratch buffer; duplicates (an item depending on several
	// publishers) are deduplicated by the plan lookup.
	sb := find(&pubs[0].reg.comp).scratchLocked()
	sb.seeds = sb.seeds[:0]
	for _, it := range pubs {
		sb.seeds = appendDependents(sb.seeds, it)
	}
	env.refreshClosureLocked(sb.seeds, now)
}
