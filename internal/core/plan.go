package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/clock"
)

// Cached propagation plans.
//
// Trigger propagation from a fixed seed set over an unchanged
// dependency graph always visits the same entries in the same order:
// the affected closure is a function of the graph structure alone, and
// the topological order is made deterministic by the creation-sequence
// tie-break. Steady-state workloads — periodic boundaries, repeated
// FireEvent/NotifyChanged on a stable subscription set — therefore
// re-derive the identical closure on every publish. The plan cache
// memoizes the ordered affected-entry slice per seed set on the
// component root, turning repeat propagation into an allocation-free
// walk of a precomputed slice.
//
// Invalidation: every structural mutation of a component — entry
// inclusion (new trigger edges), entry removal, component merges, and
// (conservatively) redefinition — bumps the version on the root's
// planScratch and drops its plans. Plans are keyed by the exact
// canonical seed-seq set (not a hash of it), so distinct seed sets can
// never alias, and each plan additionally records the version it was
// built under, so a stale plan can never be executed. All cache state
// lives on the component root (a root without a planScratch has no
// plans) and is guarded by the root's structural lock, which every
// propagation path already holds.

// planScratch is the plan cache and the reusable propagation scratch of
// one component root. Only a root that propagates has one (most
// registries never become — or stay — roots), made on first use under
// the root's lock.
type planScratch struct {
	ver      uint64 // the structural version, stamped on each plan
	plans    map[string]*propPlan
	seeds    []*item // seed collection (announceLocked)
	affected []*item // buildPlanLocked's affected set
	keyBuf   []int64
	keyBytes []byte
}

// scratchLocked returns the root's scratch space. The root's lock must
// be held.
func (c *component) scratchLocked() *planScratch {
	if c.scratch == nil {
		c.scratch = new(planScratch)
	}
	return c.scratch
}

// appendDependents appends the dependent of every edge pointing at it:
// a dependent declaring it twice appears twice, which the plan lookup's
// seed deduplication absorbs. The component lock must be held.
func appendDependents(dst []*item, it *item) []*item {
	for _, d := range it.dependents() {
		dst = append(dst, d.it)
	}
	return dst
}

// propPlan is one memoized propagation: the topologically ordered
// affected entries for one seed set at one structural version.
type propPlan struct {
	ver   uint64
	order []*item
}

// maxPlansPerScope bounds the cache per component; steady workloads
// use a handful of distinct seed sets, so a full reset on overflow is
// simpler than LRU and costs one rebuild per set.
const maxPlansPerScope = 64

// bumpStructLocked invalidates every cached plan of the component.
// The caller must hold the root's lock (c must be a root or about to
// stop being one under both locks, see union).
func (c *component) bumpStructLocked() {
	if c.scratch != nil {
		c.scratch.ver++
		clear(c.scratch.plans)
	}
}

// bumpStruct invalidates the plans of the component covering r. The
// component's structural lock must be held. It also advances the env
// write epoch, which invalidates every memoized on-demand value in the
// env: memo stamps must never survive a structural change (an
// unsubscribe could otherwise leave a memo revalidating against a dead
// dependency entry).
func bumpStruct(r *Registry) {
	find(&r.comp).bumpStructLocked()
	r.env.writeEpoch.Add(1)
}

// planFor returns the ordered affected-entry slice for seeds,
// memoizing it on the seeds' component root. Seeds spanning several
// roots (possible only transiently, while a multi-registry batch
// observes a merge in flight) fall back to an uncached build. The
// structural lock(s) covering the seeds must be held.
func (env *Env) planFor(seeds []*item) []*item {
	root := find(&seeds[0].reg.comp)
	for _, s := range seeds[1:] {
		if find(&s.reg.comp) != root {
			return env.buildPlanLocked(seeds)
		}
	}

	// Canonical cache key: the sorted, deduplicated seed seqs.
	// Insertion sort on root-owned scratch keeps the hit path
	// allocation-free; seed sets are small.
	sb := root.scratchLocked()
	kb := sb.keyBuf[:0]
	for _, s := range seeds {
		kb = append(kb, s.seq)
	}
	for i := 1; i < len(kb); i++ {
		for j := i; j > 0 && kb[j] < kb[j-1]; j-- {
			kb[j], kb[j-1] = kb[j-1], kb[j]
		}
	}
	u := 0
	for i, q := range kb {
		if i == 0 || q != kb[u-1] {
			kb[u] = q
			u++
		}
	}
	kb = kb[:u]
	sb.keyBuf = kb

	// Exact key: the seq bytes themselves. A map lookup indexed by
	// string(key) does not copy the byte slice, so hits stay
	// allocation-free; only a miss materializes the key string.
	key := sb.keyBytes[:0]
	for _, q := range kb {
		key = append(key,
			byte(q), byte(q>>8), byte(q>>16), byte(q>>24),
			byte(q>>32), byte(q>>40), byte(q>>48), byte(q>>56))
	}
	sb.keyBytes = key

	if p := sb.plans[string(key)]; p != nil && p.ver == sb.ver {
		env.stats.PlanCacheHits.Add(1)
		return p.order
	}
	env.stats.PlanCacheMisses.Add(1)
	order := env.buildPlanLocked(seeds)
	if sb.plans == nil {
		sb.plans = make(map[string]*propPlan)
	}
	if len(sb.plans) >= maxPlansPerScope {
		clear(sb.plans)
	}
	sb.plans[string(key)] = &propPlan{ver: sb.ver, order: order}
	return order
}

// buildPlanLocked computes the ordered affected-entry slice for seeds:
// the triggered entries among the seeds and all their transitive
// triggered dependents, in topological order of the dependency graph
// (edges run from dependency to dependent), ready entries processed in
// creation order for determinism. This is the plan-cache miss path;
// executing the result is refreshClosureLocked's job.
//
// The build marks entries through planIn (1 + unplanned in-degree while
// affected, 0 otherwise) and walks the dependents slices only: one
// element per declared edge means an element between two affected
// entries is exactly one unit of in-degree.
func (env *Env) buildPlanLocked(seeds []*item) []*item {
	sb := find(&seeds[0].reg.comp).scratchLocked()
	for _, s := range seeds {
		sb.admit(s)
	}
	for i := 0; i < len(sb.affected); i++ {
		for _, d := range sb.affected[i].dependents() {
			if sb.admit(d.it) {
				d.it.planIn++
			}
		}
	}
	affected := len(sb.affected)
	if affected == 0 {
		return nil
	}

	order := make([]*item, 0, affected)
	for _, it := range sb.affected {
		if it.planIn == 1 {
			order = append(order, it)
		}
	}
	slices.SortFunc(order, bySeq)
	// order is queue and result at once: entries behind head are
	// planned, entries from head on are ready.
	for head := 0; head < len(order); head++ {
		next := len(order)
		for _, d := range order[head].dependents() {
			if d.it.planIn == 0 {
				continue
			}
			if d.it.planIn--; d.it.planIn == 1 {
				order = append(order, d.it)
			}
		}
		slices.SortFunc(order[next:], bySeq)
	}
	for i, it := range sb.affected {
		it.planIn = 0
		sb.affected[i] = nil // do not pin released items between builds
	}
	sb.affected = sb.affected[:0]
	if len(order) != affected {
		// A cycle among triggered handlers would starve the queue;
		// inclusion-time cycle detection should make this impossible.
		panic(fmt.Sprintf("core: trigger propagation planned %d of %d entries (dependency cycle?)", len(order), affected))
	}
	return order
}

// bySeq orders items by creation sequence for deterministic
// propagation.
func bySeq(a, b *item) int { return cmp.Compare(a.seq, b.seq) }

// admit adds a triggered item to the affected set of the plan being
// built and reports whether it is in it. Dependents under any other
// mechanism absorb the notification: on-demand items recompute on
// access anyway, and periodic items follow their own schedule.
func (sb *planScratch) admit(it *item) bool {
	if it.planIn == 0 {
		if it.Mechanism() != TriggeredMechanism {
			return false
		}
		it.planIn = 1
		sb.affected = append(sb.affected, it)
	}
	return true
}

// refreshClosureLocked refreshes the triggered entries among seeds
// and all their transitive triggered dependents, in topological
// order of the dependency graph, so every item recomputes after all
// of its updated dependencies (the update-order requirement of Section
// 3.2.3). The lock of the component(s) holding the seeds must be held.
// The walk itself executes a (usually cached) propagation plan and is
// allocation-free on cache hits.
func (env *Env) refreshClosureLocked(seeds []*item, now clock.Time) {
	if len(seeds) == 0 {
		return
	}
	for _, it := range env.planFor(seeds) {
		env.stats.TriggerNotifications.Add(1)
		// A migration off the triggered mechanism invalidates the plan,
		// so every planned item still is one. Compute errors are
		// published as values and surface at the consumer's next read.
		it.refresh(now)
		// The refresh may have republished; deliver the transition to
		// delta dependents before the plan reaches them (the topological
		// order guarantees they come later).
		if it.deltaDeps > 0 {
			notifyDeltaLocked(it)
		}
	}
}
