package core

import (
	"sort"
)

// ItemRef identifies an included metadata item for introspection: the
// registry it lives in, its kind, and its handler's mechanism.
type ItemRef struct {
	// RegistryID is the owning registry's identifier.
	RegistryID string
	// Kind is the item kind.
	Kind Kind
	// Mechanism is the handler's update mechanism.
	Mechanism Mechanism
}

// Modules returns the names of the attached module registries, sorted.
func (r *Registry) Modules() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ext.modules))
	for name := range r.ext.modules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Dependencies returns the items the included item kind currently
// depends on (after dependency resolution), or ok=false if the item is
// not included. The result reflects the live dependency graph — the
// structure a monitoring tool renders as Figure 3.
func (r *Registry) Dependencies(kind Kind) (deps []ItemRef, ok bool) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	it := r.entryLocked(kind)
	if it == nil {
		return nil, false
	}
	for _, ed := range it.deps() {
		deps = append(deps, itemRefLocked(ed.h.it))
	}
	return deps, true
}

// Ref returns the ItemRef of an included item.
func (r *Registry) Ref(kind Kind) (ItemRef, bool) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	it := r.entryLocked(kind)
	if it == nil {
		return ItemRef{}, false
	}
	return itemRefLocked(it), true
}

// itemRefLocked builds an ItemRef; the owning component's lock must be
// held.
func itemRefLocked(it *item) ItemRef {
	return ItemRef{RegistryID: it.reg.id, Kind: it.kind(), Mechanism: it.Mechanism()}
}
