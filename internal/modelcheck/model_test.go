package modelcheck

import (
	"sort"

	"repro/internal/clock"
	"repro/internal/core"
)

// Model is the naive sequential reference implementation of the
// paper's metadata semantics: single-threaded, no locks, no handler
// objects — just maps and the refcounting/propagation rules spelled
// out in DESIGN.md. The drivers run the real internal/core against it
// and fail on any divergence.
//
// The model mirrors core operation by operation:
//
//   - include/release mirror includeLocked/releaseLocked: depth-first
//     inclusion with rollback on failure, sharing via reference
//     counts, recursive release when a count reaches zero;
//   - Advance mirrors the virtual clock + batched tick dispatch:
//     periodic items fire at exact window boundaries in (time,
//     tiebreak) order, every item due at one instant publishes its
//     window value, then trigger propagation runs once over the merged
//     seed set (same-instant coalescing);
//   - FireEvent/NotifyChanged mirror refreshClosureLocked: expansion
//     through triggered handlers only, refresh in topological order.
//
// Value semantics are shared with system_test.go (same float64 operations
// in the same order), so the drivers compare values exactly.
type Model struct {
	wl    *Workload
	now   clock.Time
	items map[ikey]*mItem

	// DeltaOff mirrors core.WithoutDeltaPropagation on the system under
	// test: no pairs flow and every aggregate refresh is a fallback.
	DeltaOff bool

	// epoch mirrors Env.writeEpoch: bumped once per entry creation (at
	// commit, before handler start), once per entry removal, and once
	// per successful Define — the exact bumpStruct sites of core. An
	// aggregate whose stamp lags the epoch must take the fold fallback.
	epoch uint64

	// Delta-path counters, pinned against the system's stats after
	// every op: the model decides fire/fallback/rebase from the mirrored
	// contract, so a divergence localizes a wrong decision in core.
	deltaFires     int64
	deltaFallbacks int64
	deltaRebases   int64

	// cseq mirrors Env.seq (entry creation order, the tie-break of
	// trigger propagation); eseq mirrors the virtual clock's event
	// sequence (the tie-break between ticks at one instant). Both
	// orders are observable: a triggered item reading a periodic
	// value through an on-demand intermediary sees the value as of
	// its own refresh, so same-instant processing order matters.
	cseq uint64
	eseq uint64

	// refreshes counts triggered-item refreshes performed by
	// propagate; it mirrors core's Stats.TriggerNotifications and pins
	// the coalesced refresh count (a triggered dependent of k
	// same-boundary publishers refreshes once per instant, not k
	// times).
	refreshes int64

	// migrations mirrors Stats.Migrations: one per successful Migrate
	// (identity no-ops and rejected migrations count nothing).
	migrations int64
}

// mItem is the model's entry: one included item with its resolved
// dependency groups and bookkeeping, mirroring core's entry struct.
type mItem struct {
	spec       *ItemSpec
	key        ikey
	refs       int
	depGroups  [][]ikey
	dependents map[ikey]int

	// mech and window are the item's CURRENT maintenance mechanism and
	// periodic window — spec.Mech/spec.Window at inclusion, updated by
	// Migrate. Every mechanism-dependent rule below (value semantics,
	// tick firing, propagation expansion, delta eligibility) reads
	// these, never the spec, mirroring that core's behavior follows the
	// live handler.
	mech   core.Mechanism
	window clock.Duration

	val      float64    // published value (static, periodic, triggered)
	winStart clock.Time // periodic: current window start
	nextFire clock.Time // periodic: next boundary
	cseq     uint64     // creation order (mirrors entry.seq)
	evSeq    uint64     // periodic: pending tick's event sequence

	delta *mDelta // delta-aggregate state (nil for plain items)
}

// mDelta mirrors core's deltaState for the fire/fallback/rebase
// decision. The model never maintains the accumulator incrementally —
// its value is always the full fold, which is the exactness claim
// under test: if core's O(1) path ever drifts from the fold, the value
// comparison catches it at the op where it happened.
type mDelta struct {
	spec    *core.DeltaSpec
	valid   bool
	epoch   uint64
	applied int
	rebase  int // resolved limit (0 = never rebase)
	pending int // pairs consumed by the next refresh
}

// NewModel returns the reference model for a workload, at time 0 with
// all modules attached (matching NewSystem).
func NewModel(wl *Workload) *Model {
	return &Model{wl: wl, items: make(map[ikey]*mItem)}
}

// Now returns the model's clock position.
func (m *Model) Now() clock.Time { return m.now }

// Refreshes returns the number of triggered-item refreshes performed
// so far; it must equal the system's Stats.TriggerNotifications after
// every operation (with the inline updater).
func (m *Model) Refreshes() int64 { return m.refreshes }

// Migrations returns the number of successful migrations; it must
// equal the system's Stats.Migrations after every operation.
func (m *Model) Migrations() int64 { return m.migrations }

// Mechanism returns the item's current maintenance mechanism, and its
// window when periodic. ok is false for excluded items.
func (m *Model) Mechanism(ri int, kind core.Kind) (core.Mechanism, clock.Duration, bool) {
	it, ok := m.items[ikey{ri, kind}]
	if !ok {
		return 0, 0, false
	}
	if it.mech == core.PeriodicMechanism {
		return it.mech, it.window, true
	}
	return it.mech, 0, true
}

// DeltaCounters returns the mirrored delta-path counters; they must
// equal the system's DeltaFires/DeltaFallbacks/DeltaRebases after
// every operation (with the inline updater).
func (m *Model) DeltaCounters() (fires, fallbacks, rebases int64) {
	return m.deltaFires, m.deltaFallbacks, m.deltaRebases
}

// IsIncluded reports whether the item is included.
func (m *Model) IsIncluded(ri int, kind core.Kind) bool {
	_, ok := m.items[ikey{ri, kind}]
	return ok
}

// Refs returns the item's reference count (0 if not included).
func (m *Model) Refs(ri int, kind core.Kind) int {
	if it, ok := m.items[ikey{ri, kind}]; ok {
		return it.refs
	}
	return 0
}

// resolve maps a dependency spec of registry ri to target registry
// indices, mirroring Registry.resolveSelector.
func (m *Model) resolve(ri int, d DepSpec) []int {
	spec := &m.wl.Regs[ri]
	switch d.Sel {
	case SelSelf:
		return []int{ri}
	case SelInput:
		if d.Index < 0 || d.Index >= len(spec.Inputs) {
			return nil
		}
		return []int{spec.Inputs[d.Index]}
	case SelEachInput:
		return append([]int(nil), spec.Inputs...)
	case SelModule:
		for mi := range m.wl.Regs {
			mr := &m.wl.Regs[mi]
			if mr.Parent == ri && mr.ModName == d.Name {
				return []int{mi}
			}
		}
		return nil
	}
	return nil
}

// Subscribe mirrors Registry.Subscribe: include the item (depth-first
// over dependencies, sharing what is already included) and take one
// external reference. The returned error is the sentinel the real
// system's error wraps, for class comparison.
func (m *Model) Subscribe(ri int, kind core.Kind) error {
	_, err := m.include(ri, kind)
	return err
}

func (m *Model) include(ri int, kind core.Kind) (ikey, error) {
	k := ikey{ri, kind}
	if it, ok := m.items[k]; ok {
		it.refs++
		return k, nil
	}
	spec := m.wl.Item(ri, kind)
	if spec == nil {
		return k, core.ErrUnknownItem
	}
	// The real system numbers the entry before including dependencies
	// (and a failed inclusion still consumes the number).
	cs := m.cseq
	m.cseq++

	// Include dependencies depth-first, rolling back on failure so a
	// failed subscription leaves no residue (mirrors includeLocked).
	var included []ikey
	rollback := func() {
		for i := len(included) - 1; i >= 0; i-- {
			m.release(included[i])
		}
	}
	groups := make([][]ikey, len(spec.Deps))
	for i, d := range spec.Deps {
		regs := m.resolve(ri, d)
		if len(regs) == 0 && !d.Optional {
			rollback()
			return k, core.ErrBadSelector
		}
		for _, tr := range regs {
			dk, err := m.include(tr, d.Kind)
			if err != nil {
				rollback()
				return k, err
			}
			included = append(included, dk)
			groups[i] = append(groups[i], dk)
		}
	}

	it := &mItem{
		spec: spec, key: k, refs: 1, cseq: cs,
		depGroups: groups, dependents: make(map[ikey]int),
		mech: spec.Mech, window: spec.Window,
	}
	m.items[k] = it
	for _, g := range groups {
		for _, dk := range g {
			m.items[dk].dependents[k]++
		}
	}

	// Entry commit: core bumps the write epoch once per created entry,
	// then starts the handler (so an aggregate's own stamp reflects its
	// own bump, but lags any entry created later in the same cascade).
	m.epoch++

	// Handler start: the initial value per the shared semantics.
	switch spec.Mech {
	case core.StaticMechanism:
		it.val = spec.Base
	case core.PeriodicMechanism:
		it.winStart = m.now
		it.nextFire = m.now.Add(it.window)
		it.evSeq = m.eseq // the ticker schedules the first tick now
		m.eseq++
		it.val = encodeWindow(m.now, m.now)
	case core.TriggeredMechanism:
		if spec.Agg != "" {
			it.delta = &mDelta{
				spec:   deltaSpecFor(spec),
				valid:  true,
				epoch:  m.epoch,
				rebase: rebaseLimit(spec.Rebase),
			}
			it.val = m.foldAgg(it)
		} else {
			it.val = spec.Base + m.sumDeps(it) + 0.01*float64(m.now)
		}
	}
	return k, nil
}

// rebaseLimit mirrors core's DeltaSpec.rebaseLimit: 0 selects the
// default interval, negative disables rebasing.
func rebaseLimit(n int) int {
	if n == 0 {
		return core.DefaultDeltaRebaseEvery
	}
	if n < 0 {
		return 0
	}
	return n
}

// Unsubscribe releases one external reference of an included item.
func (m *Model) Unsubscribe(k ikey) { m.release(k) }

// release mirrors entry.releaseLocked: decrement, and on zero remove
// the item and recursively release each dependency handle.
func (m *Model) release(k ikey) {
	it := m.items[k]
	it.refs--
	if it.refs > 0 {
		return
	}
	delete(m.items, k)
	m.epoch++ // entry removal bumps the write epoch (releaseLocked)
	for _, g := range it.depGroups {
		for _, dk := range g {
			d := m.items[dk]
			if d.dependents[k]--; d.dependents[k] <= 0 {
				delete(d.dependents, k)
			}
			m.release(dk)
		}
	}
}

// Value returns the current value of an included item, mirroring
// Registry.Peek under the shared semantics. ok=false means the real
// system must report ErrUnsubscribed.
func (m *Model) Value(ri int, kind core.Kind) (float64, bool) {
	it, ok := m.items[ikey{ri, kind}]
	if !ok {
		return 0, false
	}
	return m.value(it), true
}

// value evaluates one included item: published value for static,
// periodic and triggered items; recomputation at the current time for
// on-demand items (which compute on every access).
func (m *Model) value(it *mItem) float64 {
	if it.mech == core.OnDemandMechanism {
		if it.spec.Pure {
			// Pure on-demand: no access-time term. Whether the real
			// system recomputes or serves its memo, the value is the
			// same — that is the exactness property under test.
			return it.spec.Base + m.sumDeps(it)
		}
		return it.spec.Base + m.sumDeps(it) + 0.001*float64(m.now)
	}
	return it.val
}

// sumDeps folds the dependency values in declaration order — the same
// float64 additions in the same order as system_test.go's sumDeps, so the
// results compare exactly.
func (m *Model) sumDeps(it *mItem) float64 {
	total := 0.0
	for _, g := range it.depGroups {
		for _, dk := range g {
			total += m.value(m.items[dk])
		}
	}
	return total
}

// Advance mirrors Virtual.Advance with the inline updater over the
// batched tick pipeline: instants are processed in order, and at each
// instant every periodic item due then fires in event-sequence order
// (the arm order of the scheduler bucket — publish the window value,
// reschedule, which assigns the next event sequence), after which
// trigger propagation runs ONCE over the merged dependents of all
// same-instant publishers. Coalescing is observable both through
// values (a triggered dependent of publishers A and B reads both new
// windows in its single refresh) and through the refresh count.
func (m *Model) Advance(d int64) {
	target := m.now.Add(clock.Duration(d))
	for {
		// Earliest due boundary <= target.
		var fireAt clock.Time
		found := false
		for _, it := range m.items {
			if it.mech != core.PeriodicMechanism || it.nextFire > target {
				continue
			}
			if !found || it.nextFire < fireAt {
				fireAt = it.nextFire
				found = true
			}
		}
		if !found {
			break
		}
		if fireAt > m.now {
			m.now = fireAt
		}
		// All items due at this instant, in event-sequence order (the
		// order they joined the scheduler bucket).
		var due []*mItem
		for _, it := range m.items {
			if it.mech == core.PeriodicMechanism && it.nextFire <= m.now {
				due = append(due, it)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i].evSeq < due[j].evSeq })
		var seeds []ikey
		for _, it := range due {
			old := it.val
			it.val = encodeWindow(it.winStart, m.now)
			it.winStart = m.now
			it.nextFire = m.now.Add(it.window)
			it.evSeq = m.eseq // re-armed in bucket order at dispatch
			m.eseq++
			// The tick batch delivers every publication to the delta
			// channel before the merged propagation runs, so an aggregate
			// refresh consumes all same-instant pairs at once.
			m.pushPairs(it, old)
			seeds = append(seeds, dependentKeys(it)...)
		}
		m.propagate(seeds)
	}
	if target > m.now {
		m.now = target
	}
}

// FireEvent mirrors Registry.FireEvent: refresh the closure of the
// registry's items registered for the event.
func (m *Model) FireEvent(ri int, name string) {
	var seeds []ikey
	for k, it := range m.items {
		if k.reg != ri {
			continue
		}
		for _, ev := range it.spec.Events {
			if ev == name {
				seeds = append(seeds, k)
				break
			}
		}
	}
	m.propagate(seeds)
}

// NotifyChanged mirrors Registry.NotifyChanged: refresh the closure of
// the item's dependents. No-op if the item is not included.
func (m *Model) NotifyChanged(ri int, kind core.Kind) {
	it, ok := m.items[ikey{ri, kind}]
	if !ok {
		return
	}
	m.propagate(dependentKeys(it))
}

// propagate mirrors refreshClosureLocked: the affected set expands
// from the seeds through triggered items only (on-demand and periodic
// dependents absorb the notification), then refreshes in topological
// order of the dependency graph so every item recomputes after all of
// its updated dependencies.
func (m *Model) propagate(seeds []ikey) {
	affected := make(map[ikey]bool)
	var expand func(k ikey)
	expand = func(k ikey) {
		if affected[k] {
			return
		}
		it := m.items[k]
		if it.mech != core.TriggeredMechanism {
			return
		}
		affected[k] = true
		for d := range it.dependents {
			expand(d)
		}
	}
	for _, s := range seeds {
		expand(s)
	}
	if len(affected) == 0 {
		return
	}

	// Kahn over the affected subgraph, counting one in-edge per
	// declared dependency occurrence (matching core's multiplicity
	// accounting). Ready ties break by creation sequence, exactly as
	// refreshClosureLocked does: the order is observable through
	// on-demand intermediaries read during refresh.
	indeg := make(map[ikey]int, len(affected))
	for k := range affected {
		for _, g := range m.items[k].depGroups {
			for _, dk := range g {
				if affected[dk] {
					indeg[k]++
				}
			}
		}
	}
	var ready []ikey
	for k := range affected {
		if indeg[k] == 0 {
			ready = append(ready, k)
		}
	}
	m.sortByCreation(ready)
	for len(ready) > 0 {
		k := ready[0]
		ready = ready[1:]
		it := m.items[k]
		m.refreshes++
		old := it.val
		if it.delta != nil {
			m.refreshAgg(it)
		} else {
			it.val = it.spec.Base + m.sumDeps(it) + 0.01*float64(m.now)
		}
		// The plan walk notifies the delta channel after each refresh in
		// topological order, so aggregate dependents deeper in the walk
		// see this item's transition before their own refresh.
		m.pushPairs(it, old)
		var next []ikey
		for d := range it.dependents {
			if !affected[d] {
				continue
			}
			edges := 0
			for _, g := range m.items[d].depGroups {
				for _, dk := range g {
					if dk == k {
						edges++
					}
				}
			}
			indeg[d] -= edges
			if indeg[d] == 0 {
				next = append(next, d)
			}
		}
		m.sortByCreation(next)
		ready = append(ready, next...)
	}
}

// Migrate mirrors Registry.Migrate: validate (same sentinel classes in
// the same precedence — unknown/excluded items are ErrUnsubscribed,
// everything structurally unsupported is ErrNotMigratable, and target
// checks precede the identity no-op), then swap the item's mechanism
// and replay the new handler's start-time effects: epoch and version
// bumps, the initial publication per the shared value semantics,
// dependent delta-aggregate invalidation, dependent refresh. The
// migrated item's own publication does NOT feed the delta channel
// (core migrates without notifyDeltaLocked; the re-anchored aggregates
// re-fold instead).
func (m *Model) Migrate(ri int, kind core.Kind, to core.Mechanism, window clock.Duration) error {
	it, ok := m.items[ikey{ri, kind}]
	if !ok {
		return core.ErrUnsubscribed
	}
	spec := it.spec
	if spec.Adapt == AdaptNone {
		return core.ErrNotMigratable
	}
	if spec.Agg != "" {
		return core.ErrNotMigratable
	}
	switch it.mech {
	case core.OnDemandMechanism, core.PeriodicMechanism, core.TriggeredMechanism:
	default:
		return core.ErrNotMigratable
	}
	switch to {
	case core.OnDemandMechanism:
	case core.TriggeredMechanism:
		// system_test.go's adaptSpec declares a triggered form only for
		// AdaptFull items (AdaptExact keeps the bit-exact pure pair).
		if spec.Adapt != AdaptFull {
			return core.ErrNotMigratable
		}
	case core.PeriodicMechanism:
		if window <= 0 {
			window = spec.Window
		}
		if window <= 0 {
			return core.ErrNotMigratable
		}
	default:
		return core.ErrNotMigratable
	}
	if it.mech == to && (to != core.PeriodicMechanism || it.window == window) {
		return nil // identity no-op: no counters, no epoch bump
	}

	// Commit: one write-epoch bump (bumpStruct) plus the migration
	// counter, then the new mechanism's start-time state.
	m.epoch++
	m.migrations++
	it.mech = to
	switch to {
	case core.OnDemandMechanism:
		it.window = 0 // value recomputed at every access
	case core.TriggeredMechanism:
		it.window = 0
		it.val = spec.Base + m.sumDeps(it) + 0.01*float64(m.now)
	case core.PeriodicMechanism:
		it.window = window
		it.val = encodeWindow(m.now, m.now)
		it.winStart = m.now
		it.nextFire = m.now.Add(window)
		it.evSeq = m.eseq // new ticker armed now
		m.eseq++
	}

	// Dependent delta aggregates are re-anchored: accumulators
	// invalidated, queued pairs dropped, eligibility re-decided (the
	// model re-decides on the fly in aggEligible). The propagation
	// below re-folds them as fallbacks.
	for dk := range it.dependents {
		if d := m.items[dk]; d.delta != nil {
			d.delta.valid = false
			d.delta.pending = 0
		}
	}
	m.propagate(dependentKeys(it))
	return nil
}

// aggEligible mirrors deltaState eligibility: the O(1) path is armed
// only when delta propagation is on and no fan-in dependency is
// maintained on demand (an on-demand dependency never publishes, so
// there is no pair stream to consume). Core decides this at tracker
// start and re-decides it in Migrate's re-anchor pass; since
// mechanisms only change through migrations and every migration
// re-anchors the dependent aggregates, evaluating it on the fly over
// current mechanisms is equivalent.
func (m *Model) aggEligible(it *mItem) bool {
	if m.DeltaOff {
		return false
	}
	for _, g := range it.depGroups {
		for _, dk := range g {
			if m.items[dk].mech == core.OnDemandMechanism {
				return false
			}
		}
	}
	return true
}

// Redefine mirrors Registry.Define of an identical definition: an
// error while the item is in use, otherwise no observable change.
func (m *Model) Redefine(ri int, kind core.Kind) error {
	if _, ok := m.items[ikey{ri, kind}]; ok {
		return core.ErrItemInUse
	}
	// A successful Define bumps the write epoch (conservatively, like
	// core), so every live aggregate's next refresh is a fold fallback.
	m.epoch++
	return nil
}

// pushPairs mirrors notifyDeltaLocked for a fault-free publication: an
// unchanged value delivers nothing, a changed one delivers one pair
// per declared edge to every delta-tracking dependent. (Poison never
// arises here: workload values are always clean finite floats.)
func (m *Model) pushPairs(it *mItem, old float64) {
	if m.DeltaOff || it.val == old {
		return
	}
	for dk, edges := range it.dependents {
		if d := m.items[dk]; d.delta != nil {
			d.delta.pending += edges
		}
	}
}

// refreshAgg mirrors refreshDelta's decision for one aggregate refresh
// in a fault-free sequential run: consume the pending pairs, fire the
// O(1) path when the contract proves it exact, else count a rebase or
// fallback and re-fold (which re-validates and re-stamps the
// accumulator). The published value is always the full fold — see
// mDelta.
func (m *Model) refreshAgg(it *mItem) {
	d := it.delta
	pairs := d.pending
	d.pending = 0
	if m.aggEligible(it) && d.valid && d.epoch == m.epoch &&
		(pairs == 0 || d.spec.Retract != nil) {
		if d.rebase > 0 && d.applied >= d.rebase {
			m.deltaRebases++
			m.foldRestamp(it)
			return
		}
		// applyPairs cannot refuse here: the generated specs' Retract
		// callbacks are total (Min, the only refusing form, is handled
		// by the pairs==0 gate above).
		m.deltaFires++
		d.applied++
		it.val = m.foldAgg(it)
		return
	}
	m.deltaFallbacks++
	m.foldRestamp(it)
}

// foldRestamp is the model's foldRefreshLocked: full fold, accumulator
// re-validated and re-stamped at the current epoch.
func (m *Model) foldRestamp(it *mItem) {
	d := it.delta
	d.valid = true
	d.applied = 0
	d.epoch = m.epoch
	it.val = m.foldAgg(it)
}

// foldAgg folds the aggregate's flattened fan-in in declaration order
// through the shared core.DeltaSpec — the identical float64 operations
// core's fold performs, so values compare exactly.
func (m *Model) foldAgg(it *mItem) float64 {
	spec := it.delta.spec
	var acc core.DeltaAcc
	for _, g := range it.depGroups {
		for _, dk := range g {
			acc = spec.Combine(acc, m.value(m.items[dk]))
		}
	}
	if spec.Finish != nil {
		return spec.Finish(acc)
	}
	return acc[0]
}

func dependentKeys(it *mItem) []ikey {
	out := make([]ikey, 0, len(it.dependents))
	for d := range it.dependents {
		out = append(out, d)
	}
	return out
}

// sortByCreation orders keys by their items' creation sequence,
// mirroring core's sortEntries.
func (m *Model) sortByCreation(ks []ikey) {
	sort.Slice(ks, func(i, j int) bool { return m.items[ks[i]].cseq < m.items[ks[j]].cseq })
}
