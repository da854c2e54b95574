package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/clock"
)

// Definition declares a metadata item a node can provide: its
// dependencies, the events that trigger it, the monitoring code it
// needs, and how to build its handler. Definitions are registered via
// Registry.Define, typically in the node's constructor (the paper's
// addMetadata method); a subclass may re-Define an item to override an
// inherited definition (Section 4.4.2).
type Definition struct {
	// Kind names the item within its registry.
	Kind Kind

	// Deps declares the item's static dependencies in the order the
	// BuildContext exposes them.
	Deps []DepRef

	// Resolve, if set, overrides static dependency resolution
	// (Section 4.4.3). It runs at inclusion time and returns the
	// dependencies to use; it may consult the ResolveContext to
	// prefer alternatives that are already included.
	Resolve func(rc *ResolveContext) []DepRef

	// Events lists registry-local event names (fired via
	// Registry.FireEvent) that refresh the item while its mechanism is
	// triggered.
	Events []string

	// Probe is the monitoring code the item requires in the node's
	// processing path. It is activated when the handler is created
	// and deactivated when the handler is removed.
	Probe probe

	// Build constructs the handler. The BuildContext carries handles
	// to the resolved dependencies in Deps order.
	Build func(ctx *BuildContext) (Handler, error)

	// ComputeDeadline bounds this item's computations, overriding the
	// graph-wide WithComputeDeadline default. 0 inherits the default;
	// it requires an asynchronous updater to take effect (see
	// WithComputeDeadline).
	ComputeDeadline clock.Duration

	// Delta declares the item's delta form for NewDeltaAggregate: an
	// invertible (Combine/Retract) fold over the fan-in values that
	// lets dependency publications be applied as O(1) (old, new) pairs
	// instead of re-running the full compute, with an exact fold
	// fallback (see delta.go). A definition that declares it builds
	// with NewDeltaAggregate.
	Delta *DeltaSpec

	// Pure declares that the item's compute is a function of its
	// declared dependencies alone: it reads no clock, no captured
	// mutable state, and no external inputs, so recomputing it against
	// unchanged dependency values always yields the same result. On
	// envs with WithMemoizedOnDemand, a pure on-demand item serves
	// repeat reads from a dependency-stamped memo instead of
	// recomputing (see the option's doc for the exactness argument).
	// Without the option — or for items that do consult now/external
	// state and must leave this false — behaviour is unchanged:
	// recompute per access. A value change that happens despite the
	// declaration (i.e. a purity violation) can still be announced with
	// Registry.NotifyChanged, which invalidates dependent memos.
	Pure bool

	// Persist names the registered persistence codec able to rebuild
	// this definition at recovery time (internal/persist.RegisterCodec).
	// Go functions do not serialize, so a definition is durable only by
	// naming a codec that reconstructs it from PersistArgs. Empty — the
	// default — means the definition is not journaled: it is expected to
	// be re-registered by application code (node constructors) before
	// recovery replays the structural log.
	Persist string

	// PersistArgs is an opaque argument string handed to the Persist
	// codec at recovery time.
	PersistArgs string

	// Adapt declares the item's alternative maintenance forms, enabling
	// live mechanism migration via Registry.Migrate: the same metadata
	// quantity expressed as an on-demand compute, a triggered compute,
	// and/or a periodic window compute, constructed over the same
	// resolved dependency handles the original Build saw. nil means the
	// item is pinned to the mechanism Build chose (Migrate returns
	// ErrNotMigratable). See migrate.go.
	Adapt *AdaptSpec
}

// ResolveContext lets a dynamic Resolve hook inspect the inclusion
// state around the defining registry.
type ResolveContext struct {
	reg *Registry
}

// IsIncluded reports whether the item kind at the registries matched
// by target currently has a handler (i.e. is already provided). With a
// multi-registry selector it reports whether all matches are included.
func (rc *ResolveContext) IsIncluded(target Selector, kind Kind) bool {
	var one [1]*Registry
	regs, err := rc.reg.resolveSelector(target, &one)
	if err != nil || len(regs) == 0 {
		return false
	}
	for _, r := range regs {
		if r.entryOf(kind) == nil {
			return false
		}
	}
	return true
}

// BuildContext carries the resolved dependencies into Definition.Build
// (and into AdaptSpec factories at migration). At inclusion it is the
// traversal's one scratch, reset for each item built, holding the item's
// structural fields — registry, shape, creation sequence, group count and
// flat edge slice, whose embedded Handles are the dependency handles —
// which bind files into the handler Build returned; at migration it is a
// fresh view of the item's own fields. Neither the framework nor the
// caller retains it: Build and the factories must not keep ctx past their
// return, but may keep the *Handles and DepGroup slices it gives them.
type BuildContext struct {
	reg     *Registry
	def     *defShape
	seq     int64
	deps    []depEdge
	ngroups int32
	// ptrs points at every edge's Handle, in edge order; DepGroup slices
	// it. Made by the first DepGroup call.
	ptrs []*Handle
}

// Kind returns the kind of the item being built.
func (ctx *BuildContext) Kind() Kind { return ctx.def.kind }

// NumDeps returns the number of dependency groups (one per DepRef).
func (ctx *BuildContext) NumDeps() int { return int(ctx.ngroups) }

// groupBounds returns the edge range [lo, hi) of dependency group i:
// the edges are stored group by group, each tagged with its group.
func (ctx *BuildContext) groupBounds(i int) (lo, hi int) {
	if i < 0 || i >= ctx.NumDeps() {
		panic(fmt.Sprintf("core: dependency group %d out of range [0,%d)", i, ctx.NumDeps()))
	}
	byGroup := func(ed depEdge, g int32) int { return cmp.Compare(ed.group, g) }
	lo, _ = slices.BinarySearchFunc(ctx.deps, int32(i), byGroup)
	hi, _ = slices.BinarySearchFunc(ctx.deps, int32(i+1), byGroup)
	return lo, hi
}

// Dep returns the single handle of dependency group i. It panics if
// the group does not hold exactly one handle; use DepGroup for
// EachInput-style selectors.
func (ctx *BuildContext) Dep(i int) *Handle {
	lo, hi := ctx.groupBounds(i)
	if hi-lo != 1 {
		panic(fmt.Sprintf("core: dependency %d of %s/%s has %d handles, want 1",
			i, ctx.reg.id, ctx.Kind(), hi-lo))
	}
	return &ctx.deps[lo].h
}

// DepGroup returns all handles of dependency group i (possibly empty
// for optional dependencies).
func (ctx *BuildContext) DepGroup(i int) []*Handle {
	lo, hi := ctx.groupBounds(i)
	if lo == hi {
		return nil
	}
	if ctx.ptrs == nil {
		ctx.ptrs = make([]*Handle, len(ctx.deps))
		for k := range ctx.deps {
			ctx.ptrs[k] = &ctx.deps[k].h
		}
	}
	return ctx.ptrs[lo:hi:hi]
}

// Handle is the read proxy for an included metadata item. Handles are
// used both by consumers (wrapped in a Subscription) and by compute
// closures reading their dependencies.
type Handle struct {
	it *item
}

// Value returns the item's current value under its handler's update
// discipline. A handle that outlives its item reads ErrUnsubscribed:
// stop withdrew the snapshot, and the item's read path reports it.
func (h *Handle) Value() (Value, error) {
	it := h.it
	// it.Value(), spelled out: the compiler does not inline it, and this
	// is the read path of every consumer and of every compute that reads
	// a dependency. The snapshot is loaded before the read is counted, so
	// the load the result waits for issues first.
	s := it.cur.Load()
	if sd := it.side.Load(); sd != nil {
		if t := sd.track.Load(); t != nil {
			t.Add(1)
		}
	}
	if s != nil {
		return s.get()
	}
	return it.read()
}

// Float returns the item's current value as float64. A stale-tagged
// read (errors.Is(err, ErrStale)) still carries the last-good value so
// degrade-aware consumers can keep operating on it; every other error
// zeroes the value.
func (h *Handle) Float() (float64, error) {
	v, err := h.Value()
	if err != nil {
		if errors.Is(err, ErrStale) {
			if f, ferr := Float(v); ferr == nil {
				return f, err
			}
		}
		return 0, err
	}
	return Float(v)
}

// Registry returns the registry providing the item.
func (h *Handle) Registry() *Registry { return h.it.reg }

// Mechanism returns the update mechanism of the item's handler
// (StaticMechanism once the item is removed).
func (h *Handle) Mechanism() Mechanism { return h.it.Mechanism() }

// Subscription is a consumer's claim on a metadata item, returned by
// Registry.Subscribe. Releasing it (Unsubscribe) decrements the item's
// reference count and removes the handler — and recursively every
// dependency included solely for it — when the count reaches zero.
type Subscription struct {
	h        Handle
	released bool
}

// Value returns the current metadata value.
func (s *Subscription) Value() (Value, error) {
	if s.released {
		return nil, ErrUnsubscribed
	}
	return s.h.Value()
}

// Float returns the current metadata value as float64.
func (s *Subscription) Float() (float64, error) {
	if s.released {
		return 0, ErrUnsubscribed
	}
	return s.h.Float()
}

// Handle exposes the underlying handle for compute closures.
func (s *Subscription) Handle() *Handle {
	return &s.h
}

// Unsubscribe releases the claim. It is idempotent.
func (s *Subscription) Unsubscribe() {
	if s.released {
		return
	}
	s.released = true
	s.h.it.reg.unsubscribe(s.h.it)
}
