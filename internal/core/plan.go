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
// (conservatively) redefinition — bumps the root's structVer and drops
// its plans. Plans are keyed by the exact canonical seed-seq set (not
// a hash of it), so distinct seed sets can never alias, and each plan
// additionally records the structVer it was built under, so a stale
// plan can never be executed. All cache state lives on the component
// root and is guarded by the root's structural lock, which every
// propagation path already holds.

// planScratch is the plan cache and the reusable propagation scratch of
// one component root. Only a root that propagates has one (most
// registries never become — or stay — roots), made on first use under
// the root's lock.
type planScratch struct {
	plans    map[string]*propPlan
	seeds    []*entry // seed collection (announceLocked)
	affected []*entry // buildPlanLocked's affected set
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

// appendDependents appends the dependent of every edge pointing at e:
// a dependent declaring e twice appears twice, which the plan lookup's
// seed deduplication absorbs. The component lock must be held.
func appendDependents(dst []*entry, e *entry) []*entry {
	for _, d := range e.dependents {
		dst = append(dst, d.e)
	}
	return dst
}

// propPlan is one memoized propagation: the topologically ordered
// affected entries for one seed set at one structural version.
type propPlan struct {
	ver   uint64
	order []*entry
}

// maxPlansPerScope bounds the cache per component; steady workloads
// use a handful of distinct seed sets, so a full reset on overflow is
// simpler than LRU and costs one rebuild per set.
const maxPlansPerScope = 64

// bumpStructLocked invalidates every cached plan of the component.
// The caller must hold the root's lock (c must be a root or about to
// stop being one under both locks, see union).
func (c *component) bumpStructLocked() {
	c.structVer++
	if c.scratch != nil {
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
	find(r.comp).bumpStructLocked()
	r.env.writeEpoch.Add(1)
}

// planFor returns the ordered affected-entry slice for seeds,
// memoizing it on the seeds' component root. Seeds spanning several
// roots (possible only transiently, while a multi-registry batch
// observes a merge in flight) fall back to an uncached build. The
// structural lock(s) covering the seeds must be held.
func (env *Env) planFor(seeds []*entry) []*entry {
	root := find(seeds[0].reg.comp)
	for _, s := range seeds[1:] {
		if find(s.reg.comp) != root {
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

	if p := sb.plans[string(key)]; p != nil && p.ver == root.structVer {
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
	sb.plans[string(key)] = &propPlan{ver: root.structVer, order: order}
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
func (env *Env) buildPlanLocked(seeds []*entry) []*entry {
	sb := find(seeds[0].reg.comp).scratchLocked()
	for _, s := range seeds {
		sb.admit(s)
	}
	for i := 0; i < len(sb.affected); i++ {
		for _, d := range sb.affected[i].dependents {
			if sb.admit(d.e) {
				d.e.planIn++
			}
		}
	}
	affected := len(sb.affected)
	if affected == 0 {
		return nil
	}

	order := make([]*entry, 0, affected)
	for _, e := range sb.affected {
		if e.planIn == 1 {
			order = append(order, e)
		}
	}
	slices.SortFunc(order, bySeq)
	// order is queue and result at once: entries behind head are
	// planned, entries from head on are ready.
	for head := 0; head < len(order); head++ {
		next := len(order)
		for _, d := range order[head].dependents {
			if d.e.planIn == 0 {
				continue
			}
			if d.e.planIn--; d.e.planIn == 1 {
				order = append(order, d.e)
			}
		}
		slices.SortFunc(order[next:], bySeq)
	}
	for i, e := range sb.affected {
		e.planIn = 0
		sb.affected[i] = nil // do not pin released entries between builds
	}
	sb.affected = sb.affected[:0]
	if len(order) != affected {
		// A cycle among triggered handlers would starve the queue;
		// inclusion-time cycle detection should make this impossible.
		panic(fmt.Sprintf("core: trigger propagation planned %d of %d entries (dependency cycle?)", len(order), affected))
	}
	return order
}

// bySeq orders entries by creation sequence for deterministic
// propagation.
func bySeq(a, b *entry) int { return cmp.Compare(a.seq, b.seq) }

// admit adds a triggered entry to the affected set of the plan being
// built and reports whether e is in it. Dependents under any other
// mechanism absorb the notification: on-demand items recompute on
// access anyway, and periodic items follow their own schedule.
func (sb *planScratch) admit(e *entry) bool {
	if e.planIn == 0 {
		if e.h.Load().Mechanism() != TriggeredMechanism {
			return false
		}
		e.planIn = 1
		sb.affected = append(sb.affected, e)
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
func (env *Env) refreshClosureLocked(seeds []*entry, now clock.Time) {
	if len(seeds) == 0 {
		return
	}
	for _, e := range env.planFor(seeds) {
		env.stats.TriggerNotifications.Add(1)
		// A migration off the triggered mechanism invalidates the plan,
		// so every planned entry still is one. Compute errors are
		// published as values and surface at the consumer's next read.
		e.h.Load().refresh(now)
		// The refresh may have republished; deliver the transition to
		// delta dependents before the plan reaches them (the topological
		// order guarantees they come later).
		if e.deltaDeps > 0 {
			notifyDeltaLocked(e)
		}
	}
}
