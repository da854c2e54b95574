package core

import (
	"fmt"
	"slices"
)

// Structural self-checking for the model-based correctness harness
// (internal/modelcheck) and for debugging. These checks have access to
// the framework's internals — item reference counts, dependency
// multiplicities, the union-find scope forest — and verify the
// invariants the paper's semantics rely on:
//
//  1. handler lifecycle: every included item has a positive reference
//     count and is in service (invariant 7 says what that is); no
//     handler serves an item with zero references (removed items are
//     unreachable).
//  2. refcount conservation: an item's reference count equals the
//     number of live external subscriptions plus the dependency-edge
//     multiplicities of its included dependents.
//  3. inclusion closure: every dependency handle of an included item
//     points at an item that is itself included (filed in its
//     registry's slot), with symmetric dependent bookkeeping.
//  4. union-find scope consistency: registries connected by a live
//     dependency edge share a component root.
//  5. event-registration consistency: the per-registry event tables
//     and the definitions' event lists mirror each other.
//  6. flat-graph consistency: every dependency edge stores the slot of
//     a dependents element that points back at it and vice versa (so
//     the dependents length, ndeps, is the declared-edge count), an
//     empty fan-out holds no array, edges are stored in group order,
//     deltaDeps (eligible delta edges) matches, no plan-build mark is
//     left behind, every slot table is strictly ascending by
//     shape.kind, an included item's definition is the shape of the
//     slot it is filed in, and every slot's shape is the env's interned
//     shape for its own content.
//  7. item state: every included item is in service; the mechanism it
//     reports is the policy installed on it; a window policy has a
//     boundary task unless the item is quarantined; delta state exists
//     iff the definition declares Delta; a breaker iff the env has one
//     and the item is not static, as the side block of the item it
//     guards; and a removed item still reachable through a (broken)
//     edge is out of service.

// ItemKey identifies one metadata item across registries, for the
// external-subscription counts passed to VerifyIntegrity.
type ItemKey struct {
	Registry string
	Kind     Kind
}

// ScopesUnlocked verifies that no component lock covering the given
// registries (or their attached modules, recursively) is currently
// held. It must only be called at a quiescent point — no structural
// operation in flight — where a held lock means a wedged scope. The
// probe uses TryLock, so a false positive is impossible: an error
// really means some goroutine still owns the lock.
func ScopesUnlocked(regs ...*Registry) error {
	var seen []*component
	for _, r := range withModules(regs) {
		root := find(&r.comp)
		if rootsContain(seen, root) {
			continue
		}
		seen = append(seen, root)
		if !root.mu.TryLock() {
			return fmt.Errorf("core: scope lock of component %d (registry %s) is held at quiescence", root.id, r.id)
		}
		root.mu.Unlock()
	}
	return nil
}

// VerifyIntegrity checks the structural invariants above over the
// given registries and, recursively, their attached modules. ext maps
// each item to its number of live external subscriptions; pass nil to
// skip refcount conservation (invariant 2). The check locks the
// covering dependency scopes, so it must not be called while the
// caller already holds them. All violations found are returned, one
// error per violation.
func VerifyIntegrity(ext map[ItemKey]int, regs ...*Registry) []error {
	all := withModules(regs)
	if len(all) == 0 {
		return nil
	}
	env := all[0].env
	sc := env.lockScope(all...)
	defer sc.unlock()

	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("core: integrity: "+format, args...))
	}
	inSet := make(map[*Registry]bool, len(all))
	for _, r := range all {
		inSet[r] = true
	}

	// included reports whether it is filed in its registry's slot; one
	// that is not must be out of service (invariant 7).
	included := func(it *item) bool {
		if it.reg.entryLocked(it.kind()) == it {
			return true
		}
		if it.live {
			bad("%s/%s: removed but still in service", it.reg.id, it.kind())
		}
		return false
	}
	for _, r := range all {
		for i := range r.slots {
			sl := &r.slots[i]
			kind := sl.shape.kind
			// Invariant 6: the table is sorted, the slot's shape is the one
			// interned for its content (not a copy, not written to since),
			// and it is the included item's definition.
			if i > 0 && r.slots[i-1].shape.kind >= kind {
				bad("%s: slot table out of order at %d (%s after %s)", r.id, i, kind, r.slots[i-1].shape.kind)
			}
			env.shapeMu.Lock()
			env.shapeKey = sl.shape.appendKey(env.shapeKey[:0])
			interned := env.shapes[string(env.shapeKey)]
			env.shapeMu.Unlock()
			if interned != sl.shape {
				bad("%s/%s: slot's shape is not the interned shape of its content", r.id, kind)
			}
			it := sl.entry
			if it == nil {
				continue
			}
			if it.def != sl.shape || it.reg != r {
				bad("%s/%s: entry filed under wrong key (%s/%s)", r.id, kind, it.reg.id, it.kind())
			}
			// Invariants 1 and 7: handler lifecycle.
			if it.refs < 1 {
				bad("%s/%s: included with refs=%d", r.id, kind, it.refs)
			}
			if why := it.inconsistency(sl); why != "" {
				bad("%s/%s: %s", r.id, kind, why)
			}

			// Invariants 3, 4, 6: every dependency edge points at an
			// included item inside the same dependency-scope component,
			// and its slot holds the mirror element pointing back at it.
			group := int32(0)
			for i, ed := range it.deps() {
				de := ed.h.it
				if !included(de) {
					bad("%s/%s: depends on %s/%s which is not included", r.id, kind, de.reg.id, de.kind())
					continue
				}
				if b := int(ed.back); b < 0 || b >= len(de.dependents()) || de.dependents()[b] != (dependent{it: it, edge: int32(i)}) {
					bad("%s/%s: edge %d stores slot %d of %s/%s, which does not point back at it",
						r.id, kind, i, ed.back, de.reg.id, de.kind())
				}
				if ed.group < group || ed.group >= it.ngroups {
					bad("%s/%s: edge %d in group %d after group %d (of %d)", r.id, kind, i, ed.group, group, it.ngroups)
				}
				group = ed.group
				if find(&it.reg.comp) != find(&de.reg.comp) {
					bad("%s/%s and dependency %s/%s are in different scope components",
						r.id, kind, de.reg.id, de.kind())
				}
				if !inSet[de.reg] {
					bad("%s/%s: dependency registry %s not covered by the check", r.id, kind, de.reg.id)
				}
			}
			// ... and vice versa: one dependents element per declared
			// edge, each naming an included dependent's edge that stores
			// the element's slot. Together with the edge-side check this
			// makes ndeps the declared-edge count.
			for j, d := range it.dependents() {
				if !included(d.it) {
					bad("%s/%s: dependent %s/%s is not included", r.id, kind, d.it.reg.id, d.it.kind())
					continue
				}
				if k, dd := int(d.edge), d.it.deps(); k < 0 || k >= len(dd) || dd[k].h.it != it || int(dd[k].back) != j {
					bad("%s/%s: dependents slot %d names edge %d of %s/%s, which does not point back at it",
						r.id, kind, j, d.edge, d.it.reg.id, d.it.kind())
				}
			}
			if it.ndeps.Load() == 0 && it.fanout != nil {
				bad("%s/%s: no dependents, but the fan-out array is kept", r.id, kind)
			}
			eligible := int32(0)
			for _, d := range it.dependents() {
				if ds := d.it.delta(); ds != nil && ds.eligible {
					eligible++
				}
			}
			if it.deltaDeps != eligible {
				bad("%s/%s: deltaDeps %d, but %d eligible delta-aggregate edges depend on it", r.id, kind, it.deltaDeps, eligible)
			}
			if it.planIn != 0 {
				bad("%s/%s: plan scratch %d left behind", r.id, kind, it.planIn)
			}

			// Invariant 2: refcount conservation.
			if ext != nil {
				want := ext[ItemKey{Registry: r.id, Kind: kind}] + len(it.dependents())
				if int(it.refs) != want {
					bad("%s/%s: refs=%d, want %d (external + dependent edges)", r.id, kind, it.refs, want)
				}
			}

			// Invariant 5: event registrations, item side.
			for _, name := range it.def.events {
				if !slices.Contains(r.ext.events[name], it) {
					bad("%s/%s: missing from event table %q", r.id, kind, name)
				}
			}
		}

		// Invariant 5: event registrations, table side.
		for name, es := range r.ext.events {
			if len(es) == 0 {
				bad("%s: empty event table %q not removed", r.id, name)
			}
			for i, it := range es {
				if !included(it) || it.reg != r {
					bad("%s: event %q registers excluded item %s/%s", r.id, name, it.reg.id, it.kind())
				} else if !slices.Contains(it.def.events, name) || slices.Contains(es[:i], it) {
					bad("%s: event %q registers %s/%s without declaration or twice", r.id, name, it.reg.id, it.kind())
				}
			}
		}
	}
	return errs
}

// withModules returns regs plus every transitively attached module
// registry, deduplicated, preserving discovery order.
func withModules(regs []*Registry) []*Registry {
	var out []*Registry
	seen := make(map[*Registry]bool)
	var add func(r *Registry)
	add = func(r *Registry) {
		if r == nil || seen[r] {
			return
		}
		seen[r] = true
		out = append(out, r)
		r.mu.RLock()
		mods := make([]*Registry, 0, len(r.ext.modules))
		for _, m := range r.ext.modules {
			mods = append(mods, m)
		}
		r.mu.RUnlock()
		for _, m := range mods {
			add(m)
		}
	}
	for _, r := range regs {
		add(r)
	}
	return out
}
