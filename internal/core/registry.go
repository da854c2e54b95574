package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/clock"
)

// Registry manages the metadata items of one query-graph node (or of
// one exchangeable module inside a node, Section 4.5). It stores the
// item definitions, and — for items currently in use — the item itself,
// which is its unique handler and carries its reference count.
// Metadata items are stored directly at the graph nodes they describe
// (Section 2.2), so each registry advertises exactly the items its
// node can provide.
type Registry struct {
	env *Env
	id  string

	// comp is the registry's own dependency-scope node (union-find, see
	// scope.go). Structural operations lock the component's root
	// instead of a graph-wide mutex.
	comp component

	// inputs/outputs resolve the node's upstream and downstream
	// registries for inter-node dependencies. They are set by the
	// graph layer and read at inclusion time.
	inputs  func() []*Registry
	outputs func() []*Registry

	// mu is the node-level lock of slots, ext and ext.modules. Every
	// write also holds the registry's component lock, so structural code
	// reads them under the component lock alone and lock-free read paths
	// (Peek, IsIncluded, ...) under mu.RLock alone.
	mu sync.RWMutex
	// slots is the slot table: one slot per defined kind, by value, strictly
	// ascending by shape.kind. Define shifts and moves it, so an index or a
	// &slots[i] is good only under the lock it was found under; shapes never move.
	slots []slot
	ext   *registryExt // modules and events: the shared, empty noExt until extLocked
}

// registryExt is what few registries use: the module tree and the
// included items registered per event name (events is guarded by the
// component lock only).
type registryExt struct {
	modules map[string]*Registry
	events  map[string][]*item
}

var noExt registryExt // only ever read

// extLocked returns the registry's own ext block, making it on first
// use. The component lock must be held and r.mu must not be.
func (r *Registry) extLocked() *registryExt {
	if r.ext == &noExt {
		r.mu.Lock()
		r.ext = &registryExt{modules: make(map[string]*Registry), events: make(map[string][]*item)}
		r.mu.Unlock()
	}
	return r.ext
}

// defShape is the part of a definition every instance of an operator
// class shares, and all the hot path reads of it. Shapes are immutable
// and interned per Env (internShape): equal content is one object however
// many registries define it, and an item points at the one it was built from.
type defShape struct {
	kind     Kind
	deps     []DepRef
	events   []string
	deadline clock.Duration
	persist  string
	pure     bool
}

// slot is a registry's own part of one defined kind: the closures and
// specs of this instance and, while the item is in use, the item
// (guarded like the table: written under the component lock and r.mu).
// rare is nil unless the definition sets one of slotRare's fields.
type slot struct {
	shape *defShape
	build func(ctx *BuildContext) (Handler, error)
	adapt *AdaptSpec
	entry *item
	rare  *slotRare
}

// slotRare holds Definition's Resolve, Probe, Delta and PersistArgs.
type slotRare struct {
	resolve     func(rc *ResolveContext) []DepRef
	probe       probe
	delta       *DeltaSpec
	persistArgs string
}

// rareFields returns the slot's rare block, zero when it has none.
func (s *slot) rareFields() slotRare {
	if s.rare == nil {
		return slotRare{}
	}
	return *s.rare
}

// appendKey appends the shape's table key to b: every field in a fixed
// order, each string and each list behind its length (a bool as "true" or
// "false"), so no two different shapes encode alike.
func (s *defShape) appendKey(b []byte) []byte {
	str := func(v string) {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	str(string(s.kind))
	b = binary.AppendUvarint(b, uint64(len(s.deps)))
	for _, d := range s.deps {
		b = binary.AppendUvarint(b, uint64(d.Target.kind))
		b = binary.AppendVarint(b, int64(d.Target.index))
		str(d.Target.name)
		str(string(d.Kind))
		b = strconv.AppendBool(b, d.Optional)
	}
	b = binary.AppendUvarint(b, uint64(len(s.events)))
	for _, name := range s.events {
		str(name)
	}
	b = binary.AppendVarint(b, int64(s.deadline))
	str(s.persist)
	return strconv.AppendBool(b, s.pure)
}

// internShape returns the env's shape for def's content, making it on
// first sight. A hit allocates and copies nothing; a miss clones Deps and
// Events, so no shape references a caller's slice. Shapes live as long as
// the env: the table grows with the distinct definitions a program's code
// declares, not with the registries defining them.
func (env *Env) internShape(def *Definition) *defShape {
	probe := defShape{kind: def.Kind, deps: def.Deps, events: def.Events,
		deadline: def.ComputeDeadline, persist: def.Persist, pure: def.Pure}
	env.shapeMu.Lock()
	defer env.shapeMu.Unlock()
	env.shapeKey = probe.appendKey(env.shapeKey[:0])
	if s := env.shapes[string(env.shapeKey)]; s != nil {
		return s
	}
	s := new(defShape)
	*s = probe
	s.deps, s.events = slices.Clone(def.Deps), slices.Clone(def.Events)
	env.shapes[string(env.shapeKey)] = s
	return s
}

// compileDef splits def into its interned shape and this instance's
// slot. Nothing the caller still holds — the struct or its slices — is
// referenced afterwards.
func (env *Env) compileDef(def *Definition) slot {
	s := slot{shape: env.internShape(def), build: def.Build, adapt: def.Adapt}
	if def.Resolve != nil || def.Probe != nil || def.Delta != nil || def.PersistArgs != "" {
		s.rare = &slotRare{resolve: def.Resolve, probe: def.Probe, delta: def.Delta, persistArgs: def.PersistArgs}
	}
	return s
}

// depEdge is one declared dependency edge of an item, stored in the
// dependent's flat deps slice in declaration order (DepRef by DepRef,
// resolved registries in selector order). The edge embeds the Handle
// Build receives for it, so the slice is also the backing array of the
// item's dependency handles. h is immutable once the item commits;
// back is guarded by the component lock.
type depEdge struct {
	h     Handle // h.it is the dependency
	back  int32  // index of the mirror element in h.it.dependents()
	group int32  // index of the declaring DepRef
}

// dependent mirrors one depEdge at the dependency: one element per
// declared edge, so a dependent declaring the same dependency twice
// appears twice — multiplicity, per-edge delta pairs and plan
// in-degrees are the element count, not a stored number.
type dependent struct {
	it   *item // the dependent item
	edge int32 // index of the mirrored edge in it.deps()
}

// entry is the structural half of an in-use item, embedded in it: the
// item is its own handler (1-to-1, Section 2.1), so one object serves
// the inclusion. bind files reg, def, seq, deps and ngroups when the
// inclusion commits. All structural fields are guarded by the owning
// component's structural lock.
type entry struct {
	reg *Registry
	def *defShape // the shape the item was built from — its slot's, for the item's life

	// version counts the item's publications: every periodic window
	// publish, triggered refresh, probe republish, quarantine trip, and
	// memoized on-demand recompute bumps it (after the new snapshot is
	// stored, so a reader observing version v sees the v-th value or a
	// newer one). NotifyChanged bumps it too, as the declared escape
	// hatch for items whose value changed outside the framework.
	// Memoized on-demand items stamp their dependencies' versions at
	// compute time; an unchanged stamp proves the dependency's served
	// value is unchanged, which is what makes the lock-free memo hit
	// exact (see memo.go). Monotonic and never reused, so a stale
	// stamp can never revalidate.
	version atomic.Uint64

	// ndeps is the length of the fan-out array (dependents() is the
	// slice), atomic so periodic items can skip the component lock
	// entirely when nothing depends on them — the key to parallel
	// periodic updates on the worker pool (Section 4.3: only the locks
	// involved in the currently included items are used).
	ndeps atomic.Int32
	refs  int32

	seq int64

	// edges (nedges long; deps() is the slice) are the item's dependency
	// edges, fixed when the item commits — Build, migration factories
	// and compute closures hold pointers into them. fanout (ndeps long,
	// with room for ndeps rounded up to a power of two; dependents() is
	// the slice) holds the mirror elements of the edges pointing at it
	// (see depEdge, dependent), changed by linkLocked/unlinkLocked.
	edges  *depEdge
	fanout *dependent

	nedges  int32
	ngroups int32 // resolved DepRefs: the BuildContext's NumDeps

	// planIn is buildPlanLocked's scratch: 0 outside a plan build,
	// 1 + unplanned in-degree while the item is in the affected set.
	// Guarded by the component lock.
	planIn int32

	// Delta-channel edge state, guarded by the component lock (see
	// delta.go). deltaDeps counts delta-eligible dependent edges;
	// while it is positive, deltaLast and the item's deltaLastOK track
	// the latest delta-visible published value — the value every
	// dependent accumulator over this edge currently reflects.
	deltaDeps int32
	deltaLast float64
}

// kind returns the item's kind.
func (e *entry) kind() Kind { return e.def.kind }

// deps returns the item's dependency edges in declaration order.
func (e *entry) deps() []depEdge { return unsafe.Slice(e.edges, e.nedges) }

// dependents returns the mirror elements of the edges pointing at the
// item. The component lock must be held.
func (e *entry) dependents() []dependent { return unsafe.Slice(e.fanout, e.ndeps.Load()) }

// linkLocked appends the mirror element of every dependency edge of it
// to its dependency's dependents, recording each side's slot on the
// other. The component lock must be held.
func (it *item) linkLocked() {
	deps := it.deps()
	for i := range deps {
		ed := &deps[i]
		de := ed.h.it
		n := de.ndeps.Load()
		if n&(n-1) == 0 { // full at 0 and at a power of two: grow as append does
			de.fanout = unsafe.SliceData(slices.Grow(de.dependents(), max(int(n), 1)))
		}
		unsafe.Slice(de.fanout, n+1)[n] = dependent{it: it, edge: int32(i)}
		ed.back = n
		de.ndeps.Store(n + 1)
	}
}

// unlinkLocked removes the mirror element of edge ed from its
// dependency in O(1): the last dependents element moves into the freed
// slot and the edge it mirrors is told its new slot. The component
// lock must be held.
func (ed *depEdge) unlinkLocked() {
	de := ed.h.it
	ds := de.dependents()
	last := len(ds) - 1
	if moved := ds[last]; int(ed.back) != last {
		ds[ed.back] = moved
		moved.it.deps()[moved.edge].back = ed.back
	}
	ds[last] = dependent{}
	if last == 0 {
		de.fanout = nil // a drained fan-out gives its array back
	}
	de.ndeps.Store(int32(last))
}

// NewRegistry creates a registry bound to this environment. The id
// appears in error messages and must be unique within the graph. Every
// registry starts as its own dependency-scope component; components
// merge as metadata dependencies connect registries.
func (env *Env) NewRegistry(id string) *Registry {
	return &Registry{env: env, id: id, comp: component{id: env.compSeq.Add(1)}, ext: &noExt}
}

// searchSlot returns where the kind's slot is, or would be inserted, in the
// table. The component lock or r.mu must be held while the index is used.
func (r *Registry) searchSlot(kind Kind) (int, bool) {
	lo, hi := 0, len(r.slots)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); r.slots[m].shape.kind < kind {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.slots) && r.slots[lo].shape.kind == kind
}

// slotOf returns the slot an included item is filed in. The component
// lock must be held; the pointer is good until it is released.
func (e *entry) slotOf() *slot {
	i, _ := e.reg.searchSlot(e.def.kind)
	return &e.reg.slots[i]
}

// entryLocked returns the kind's item, or nil if it is not included.
// The component lock must be held.
func (r *Registry) entryLocked(kind Kind) *item {
	if i, ok := r.searchSlot(kind); ok {
		return r.slots[i].entry
	}
	return nil
}

// entryOf is entryLocked for callers outside the component lock: one
// table search under the node-level read lock.
func (r *Registry) entryOf(kind Kind) *item {
	r.mu.RLock()
	it := r.entryLocked(kind)
	r.mu.RUnlock()
	return it
}

// ID returns the registry's identifier.
func (r *Registry) ID() string { return r.id }

// Env returns the registry's environment.
func (r *Registry) Env() *Env { return r.env }

// SetNeighbors installs the resolver functions for upstream and
// downstream registries. The graph layer calls this when nodes are
// wired; either function may be nil for none.
func (r *Registry) SetNeighbors(inputs, outputs func() []*Registry) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	r.inputs = inputs
	r.outputs = outputs
}

// AttachModule registers the registry of an exchangeable module under
// the given name (Section 4.5). Metadata items of the node can then
// depend on the module's items via the Module selector, recursively.
// The module keeps its own dependency-scope component until metadata
// actually links it to the node, so attaching locks the node's
// component alone.
func (r *Registry) AttachModule(name string, m *Registry) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	x := r.extLocked()
	r.mu.Lock()
	x.modules[name] = m
	r.mu.Unlock()
}

// ModuleRegistry returns the registry of the named module, or nil.
func (r *Registry) ModuleRegistry(name string) *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ext.modules[name]
}

// Define registers (or overrides) the definition of a metadata item.
// Overriding implements metadata inheritance (Section 4.4.2): a
// specialized node re-Defines an inherited item, e.g. to reflect
// additional data structures in its memory usage. An item currently in
// use cannot be redefined. Define copies what it needs of def, Deps and
// Events included; the caller's struct and slices are not referenced
// once it returns.
func (r *Registry) Define(def *Definition) error {
	if def.Kind == "" {
		return fmt.Errorf("core: definition without kind on %s", r.id)
	}
	if def.Build == nil {
		return fmt.Errorf("core: definition of %s/%s without Build", r.id, def.Kind)
	}
	sc := r.env.lockScope(r)
	defer sc.unlock()
	i, redefine := r.searchSlot(def.Kind)
	if redefine && r.slots[i].entry != nil {
		return fmt.Errorf("%w: %s/%s", ErrItemInUse, r.id, def.Kind)
	}
	sl := r.env.compileDef(def)
	r.mu.Lock()
	if redefine {
		r.slots[i] = sl
	} else {
		r.slots = slices.Insert(r.slots, i, sl)
	}
	// The node lock is released before bumping and journaling: the
	// journal may checkpoint inline, and a checkpoint reads items
	// through node-RLock primitives (Peek) — holding the write lock
	// across it would self-deadlock.
	r.mu.Unlock()
	// Redefinition cannot change the edges of included entries (the
	// item must not be in use), but bump conservatively so plans never
	// outlive a definition change.
	bumpStruct(r)
	if def.Persist != "" {
		r.env.journalRecord(JournalOp{
			Op: JournalDefine, Registry: r.id, Kind: def.Kind,
			Codec: def.Persist, CodecArgs: def.PersistArgs,
		})
	}
	return nil
}

// MustDefine is Define but panics on error; for node constructors.
func (r *Registry) MustDefine(def *Definition) {
	if err := r.Define(def); err != nil {
		panic(err)
	}
}

// Available returns the kinds of all defined items, sorted. This is
// the metadata discovery surface of Section 2.2: each node gives
// information about its available metadata items.
func (r *Registry) Available() []Kind {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Kind, len(r.slots))
	for i, s := range r.slots {
		out[i] = s.shape.kind
	}
	return out
}

// Included returns the kinds of items currently provided (in use),
// sorted.
func (r *Registry) Included() []Kind {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Kind, 0, len(r.slots))
	for _, s := range r.slots {
		if s.entry != nil {
			out = append(out, s.shape.kind)
		}
	}
	return out
}

// SlotState is one item kind of a registry as a checkpoint reads it:
// the definition's codec and, while the item is in use, its mechanism
// (with the window of a periodic one) and current publication.
type SlotState struct {
	Kind Kind
	// Codec and Args are Definition.Persist and PersistArgs; Codec is
	// empty for a definition recovery cannot rebuild.
	Codec, Args string
	// Included reports an item in use; the fields below are zero
	// otherwise. Version is read before Value, so every publication
	// after the read of Value carries a version above it. A stale read
	// carries the last-good value with a *StaleError; an item released
	// after the table was read carries ErrUnsubscribed.
	Included  bool
	Mechanism Mechanism
	Window    clock.Duration
	Version   uint64
	Value     Value
	Err       error

	// it carries the item from AppendSlots' locked pass to its unlocked
	// one; nil in every state a caller sees.
	it *item
}

// AppendSlots appends the state of every defined kind to dst, sorted by
// kind, and returns the extended slice. It is the checkpoint's one pass
// over a registry: the slot table is read once, in its own order, under
// the node-level read lock, and the items are read after it is released
// (an on-demand read runs user code), through the same lock-free path as
// Peek — without counting as a consumer read — so it is safe under a
// scope lock. Reading definitions from the live registry rather
// than from journaled Define calls also captures definitions registered
// before the journal attached. A caller that reuses dst pays no
// allocation per registry.
func (r *Registry) AppendSlots(dst []SlotState) []SlotState {
	base := len(dst)
	r.mu.RLock()
	for i := range r.slots {
		s := &r.slots[i]
		dst = append(dst, SlotState{Kind: s.shape.kind, Codec: s.shape.persist, it: s.entry})
		if s.rare != nil {
			dst[len(dst)-1].Args = s.rare.persistArgs
		}
	}
	r.mu.RUnlock()
	for i := base; i < len(dst); i++ {
		s := &dst[i]
		it := s.it
		s.it = nil
		if it == nil {
			continue
		}
		s.Included = true
		s.Mechanism = it.Mechanism()
		if w := it.win.Load(); w != nil {
			s.Window = w.window
		}
		s.Version = it.version.Load()
		s.Value, s.Err = it.Value()
	}
	return dst
}

// IsIncluded reports whether the item currently has a handler.
func (r *Registry) IsIncluded(kind Kind) bool { return r.entryOf(kind) != nil }

// Refs returns the current reference count of the item (0 if not
// included). Intended for tests and monitoring.
func (r *Registry) Refs(kind Kind) int {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	if it := r.entryLocked(kind); it != nil {
		return int(it.refs)
	}
	return 0
}

// Peek reads the current value of an included item without taking a
// subscription: no reference count churn, no structural lock — just
// the node-level table search and the handler's own (lock-free for
// periodic/triggered) value read. It returns ErrUnsubscribed if the
// item is not included, which makes it the right primitive for
// monitoring paths that sample many items at once.
func (r *Registry) Peek(kind Kind) (Value, error) {
	it := r.entryOf(kind)
	if it == nil {
		return nil, ErrUnsubscribed
	}
	return (&Handle{it: it}).Value()
}

// Mechanism returns the update mechanism of an included item's handler.
func (r *Registry) Mechanism(kind Kind) (Mechanism, bool) {
	it := r.entryOf(kind)
	if it == nil {
		return 0, false
	}
	return it.Mechanism(), true
}

// Subscribe obtains a Subscription on the item, creating its handler —
// and, by depth-first traversal of the dependency graph, the handlers
// of every transitively required item — if it is not yet provided
// (Section 2.4). Dependent items already provided are shared.
//
// Locking: the traversal runs under the dependency-scope component
// lock(s) covering the registries it touches. The covering set is not
// known up front — an inter-node dependency may reach a registry in
// another component — so the traversal starts under the subscriber's
// component lock and, when it would leave the locked scope, notes the
// escaped registry and keeps scanning the remaining selectors without
// descending into it. An attempt that escaped rolls back, widens the
// scope by every registry it noted (lockScope re-acquires all locks in
// ascending component-id order), and retries: one attempt per level of
// not-yet-connected registries, not one per registry. Each retry covers
// strictly more of the closure and components only ever merge, so the
// loop terminates. Cross-component edges created by the traversal merge
// the components involved.
func (r *Registry) Subscribe(kind Kind) (*Subscription, error) {
	need := []*Registry{r}
	for {
		it, escaped, err := r.subscribeAttempt(kind, need)
		if err == nil {
			return &Subscription{h: Handle{it: it}}, nil
		}
		if err != errScopeEscape {
			return nil, err
		}
		need = append(need, escaped...)
	}
}

// subscribeAttempt runs one locked inclusion attempt over the widened
// registry set; errScopeEscape means the attempt rolled back because
// the traversal ran into the returned registries outside the scope.
// The unlock is deferred so that a panic escaping the traversal
// (framework bug) propagates without wedging component locks; user-code
// panics in Build/Resolve/compute are converted to errors before they
// reach this frame.
func (r *Registry) subscribeAttempt(kind Kind, need []*Registry) (*item, []*Registry, error) {
	tv := traversal{sc: r.env.lockScope(need...)}
	defer tv.sc.unlock()
	it, err := r.includeLocked(kind, &tv)
	if err == nil {
		// Journal the external subscription (transitive includes are
		// derived state) inside the scope lock, so WAL order equals
		// commit order per component.
		r.env.journalRecord(JournalOp{Op: JournalSubscribe, Registry: r.id, Kind: kind})
	}
	return it, tv.escaped, err
}

// traversal is the state of one inclusion attempt.
type traversal struct {
	sc scope
	// visiting holds the items on the depth-first stack, for cycle
	// detection; made by the first step that builds an item, so a
	// subscription to an item already provided allocates nothing here.
	visiting map[visitKey]struct{}
	// escaped lists the registries outside the scope the attempt ran
	// into, once per edge that reached them (lockScope deduplicates).
	escaped []*Registry
	ctx     *BuildContext // reset for each item built; made by the first one
}

type visitKey struct {
	reg  *Registry
	kind Kind
}

// errScopeEscape fails an inclusion step whose closure left the locked
// scope; traversal.escaped names where. It is an internal control-flow
// error and never escapes the package.
var errScopeEscape = errors.New("core: dependency traversal left the locked scope")

// resolveSelector maps a dependency selector to concrete registries.
// A selector naming a single registry answers through one, the caller's
// (stack) buffer, so the inclusion traversal does not allocate a slice
// per dependency.
func (r *Registry) resolveSelector(s Selector, one *[1]*Registry) ([]*Registry, error) {
	get := func(f func() []*Registry) []*Registry {
		if f == nil {
			return nil
		}
		return f()
	}
	single := func(t *Registry) ([]*Registry, error) {
		if t == nil {
			return nil, nil
		}
		one[0] = t
		return one[:], nil
	}
	at := func(regs []*Registry, i int) *Registry {
		if i < 0 || i >= len(regs) {
			return nil
		}
		return regs[i]
	}
	switch s.kind {
	case selSelf:
		return single(r)
	case selInput:
		return single(at(get(r.inputs), s.index))
	case selEachInput:
		return get(r.inputs), nil
	case selOutput:
		return single(at(get(r.outputs), s.index))
	case selEachOutput:
		return get(r.outputs), nil
	case selModule:
		return single(r.ext.modules[s.name]) // the scope lock covers r
	default:
		return nil, fmt.Errorf("core: unknown selector %v on %s", s, r.id)
	}
}

// includeLocked performs one step of the depth-first inclusion
// traversal. The component lock(s) of the scope must be held and cover
// r. A dependency that resolves to a registry outside the scope is
// noted in tv.escaped and skipped; the step then finishes scanning its
// remaining dependencies (so one attempt finds every escape it can
// reach), rolls back, and reports errScopeEscape.
func (r *Registry) includeLocked(kind Kind, tv *traversal) (*item, error) {
	// The traversal stops at items already provided: sharing the
	// existing handler saves redundant maintenance costs (Section 2.1).
	i, ok := r.searchSlot(kind)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrUnknownItem, r.id, kind)
	}
	// sl points into the table across the whole step, recursion and user
	// code included: the scope lock excludes Define on r, which moves it.
	sl := &r.slots[i]
	if it := sl.entry; it != nil {
		it.refs++
		r.env.stats.SharedSubscriptions.Add(1)
		return it, nil
	}
	vk := visitKey{r, kind}
	if _, ok := tv.visiting[vk]; ok {
		return nil, fmt.Errorf("%w: via %s/%s", ErrCycle, r.id, kind)
	}
	if tv.visiting == nil {
		tv.visiting = make(map[visitKey]struct{})
	}
	tv.visiting[vk] = struct{}{}
	defer delete(tv.visiting, vk)

	r.env.stats.IncludeTraversals.Add(1)

	rare := sl.rareFields()
	deps, err := resolveDeps(sl.shape, rare.resolve, r)
	if err != nil {
		return nil, fmt.Errorf("resolving deps of %s/%s: %w", r.id, kind, err)
	}

	seq := r.env.nextSeq() // before the dependencies, as creation-order tie-breaks expect

	// Include dependencies depth-first; roll back on any failure so a
	// failed subscription leaves no residue. The edges are not linked
	// into the dependencies' dependents until commit, so rollback only
	// has to drop the references taken so far.
	var edges []depEdge
	rollback := func() {
		for i := len(edges) - 1; i >= 0; i-- {
			edges[i].h.it.releaseLocked()
		}
	}
	escaped := false
	var one [1]*Registry
	for i, dr := range deps {
		regs, err := r.resolveSelector(dr.Target, &one)
		if err != nil {
			rollback()
			return nil, err
		}
		if len(regs) == 0 && !dr.Optional {
			rollback()
			return nil, fmt.Errorf("%w: %s of %s/%s (dep %s)",
				ErrBadSelector, dr.Target, r.id, kind, dr.Kind)
		}
		// One exact-size growth per DepRef: the edge slice lives as long as
		// the item, so append's doubling would be retained slack.
		edges = slices.Grow(edges, len(regs)+len(deps)-i-1)
		for _, tr := range regs {
			if !tv.sc.covers(tr) {
				tv.escaped = append(tv.escaped, tr)
				escaped = true
				continue
			}
			// The dependency edge r -> tr joins the two registries'
			// components; merge eagerly (a later rollback leaves them
			// merged, which is conservative but correct).
			tv.sc.mergeLocked(r, tr)
			de, err := tr.includeLocked(dr.Kind, tv)
			if err == errScopeEscape {
				escaped = true
				continue
			}
			if err != nil {
				rollback()
				return nil, fmt.Errorf("including %s/%s: %w", r.id, kind, err)
			}
			edges = append(edges, depEdge{h: Handle{it: de}, group: int32(i)})
		}
	}
	if escaped {
		rollback()
		return nil, errScopeEscape
	}

	// Build the handler with handles on the resolved dependencies, and
	// file the inclusion into the item behind it. The dependencies are
	// built, so the traversal's context is free; the reset drops ptrs,
	// whose DepGroup slices the previous item's handler may keep.
	if tv.ctx == nil {
		tv.ctx = new(BuildContext)
	}
	ctx := tv.ctx
	*ctx = BuildContext{reg: r, def: sl.shape, seq: seq, deps: edges, ngroups: int32(len(deps))}
	handler, err := buildHandler(sl.build, ctx)
	if err != nil {
		rollback()
		return nil, fmt.Errorf("building handler %s/%s: %w", r.id, kind, err)
	}
	if handler == nil {
		rollback()
		return nil, fmt.Errorf("core: Build of %s/%s returned nil handler", r.id, kind)
	}
	it, err := handler.bind(ctx)
	if err != nil {
		rollback()
		return nil, err
	}

	// Commit: register trigger edges, event registrations, probe, and
	// the item itself, then start it (which may pre-compute the value
	// from the now-included dependencies).
	it.linkLocked()
	events := sl.shape.events
	for i, name := range events {
		if x := r.extLocked(); !slices.Contains(events[:i], name) {
			x.events[name] = append(x.events[name], it)
		}
	}
	if rare.probe != nil {
		rare.probe.Activate()
	}
	it.refs = 1
	r.mu.Lock()
	sl.entry = it
	r.mu.Unlock()
	// The new item and its trigger edges changed the component's
	// propagation structure; cached plans are stale.
	bumpStruct(r)
	r.env.stats.HandlersCreated.Add(1)

	it.start()
	return it, nil
}

// resolveDeps returns the item's dependencies, running a dynamic
// Resolve hook with panic recovery: a panicking resolver fails the
// subscription instead of unwinding with component locks held.
func resolveDeps(shape *defShape, resolve func(*ResolveContext) []DepRef, r *Registry) (deps []DepRef, err error) {
	if resolve == nil {
		return shape.deps, nil
	}
	defer recoverCompute("resolve", &err)
	return resolve(&ResolveContext{reg: r}), nil
}

// buildHandler runs Definition.Build with panic recovery: a panicking
// Build fails the subscription (rolling back included dependencies)
// instead of unwinding with component locks held.
func buildHandler(build func(*BuildContext) (Handler, error), ctx *BuildContext) (h Handler, err error) {
	defer recoverCompute("build", &err)
	return build(ctx)
}

// unsubscribe releases one reference from a consumer Subscription.
// The release closure stays within the item's component: every
// dependency edge merged the components involved at inclusion time,
// and components never split.
func (r *Registry) unsubscribe(it *item) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	it.releaseLocked()
	r.env.journalRecord(JournalOp{Op: JournalUnsubscribe, Registry: r.id, Kind: it.kind()})
}

// releaseLocked decrements the reference count and removes the handler
// — deactivating monitoring code and recursively excluding
// dependencies — when it reaches zero (the removeMetadata operation of
// Section 4.4.1). The owning component's lock must be held.
func (it *item) releaseLocked() {
	it.refs--
	if it.refs > 0 {
		return
	}
	r := it.reg
	sl := it.slotOf()
	r.mu.Lock()
	sl.entry = nil
	r.mu.Unlock()
	it.stop()
	// Deregister from the dependencies' delta channels before the
	// dependencies themselves are released.
	if ds := it.delta(); ds != nil {
		ds.stopLocked()
	}
	if probe := sl.rareFields().probe; probe != nil {
		probe.Deactivate()
	}
	for _, name := range it.def.events {
		if es := slices.DeleteFunc(r.ext.events[name], func(x *item) bool { return x == it }); len(es) == 0 {
			delete(r.ext.events, name)
		} else {
			r.ext.events[name] = es
		}
	}
	deps := it.deps()
	for i := range deps {
		ed := &deps[i]
		ed.unlinkLocked()
		ed.h.it.releaseLocked()
	}
	// Removing the item (and its trigger edges) invalidates every
	// cached propagation plan of the component — a stale plan would
	// refresh a dead item.
	bumpStruct(r)
	r.env.stats.HandlersRemoved.Add(1)
}

// FireEvent refreshes every triggered handler registered for the named
// event and propagates the updates along the inverted dependency graph
// (Section 3.2.3: event notifications let developers fire triggers
// manually, e.g. when an operator's state or a window size changes).
func (r *Registry) FireEvent(name string) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	r.env.stats.EventsFired.Add(1)
	es := r.ext.events[name]
	if len(es) == 0 {
		return
	}
	// The registration list is the seed set as it stands: propagation
	// only reads it, so steady-state event firing allocates nothing.
	r.env.refreshClosureLocked(es, r.env.Now())
}

// NotifyChanged announces that the value of an on-demand (or static)
// item changed, so that dependent triggered handlers refresh. This is
// the notification mechanism for items whose handlers do not publish
// (Section 3.2.3). It is a no-op if the item is not included.
func (r *Registry) NotifyChanged(kind Kind) {
	sc := r.env.lockScope(r)
	defer sc.unlock()
	it := r.entryLocked(kind)
	if it == nil {
		return
	}
	// The announced change is invisible to publication versions (the
	// item did not publish), so invalidate explicitly: drop the item's
	// own memo (its stamps cover dependencies, not the announced change)
	// and bump the version so memoized dependents revalidate just like
	// triggered dependents refresh. The announced value is also the new
	// delta-visible truth of this edge: announceLocked delivers the
	// transition (or a poison mark for non-float values) to delta
	// dependents before they refresh.
	it.dropMemo()
	it.bumpVersion()
	r.env.announceLocked(r.env.Now(), it)
}
