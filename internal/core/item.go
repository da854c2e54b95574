package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/clock"
)

// recoverCompute converts a panic in user-supplied code (compute
// closures, Definition.Build, Definition.Resolve) into an
// ErrComputePanic error. Items store the error like any other compute
// failure, so it surfaces at the consumer's next Value() read instead
// of unwinding through framework locks (a panic escaping a pool worker
// would kill the process; one escaping a tick would wedge the item
// mutex).
func recoverCompute(what string, errp *error) {
	if p := recover(); p != nil {
		*errp = fmt.Errorf("%w: %s: %v", ErrComputePanic, what, p)
	}
}

// safeCompute runs an on-demand/triggered compute with panic recovery.
func safeCompute(fn ComputeFunc, now clock.Time) (v Value, err error) {
	defer recoverCompute("compute", &err)
	return fn(now)
}

// safeWindowCompute runs a periodic window compute with panic recovery.
func safeWindowCompute(fn WindowComputeFunc, start, end clock.Time) (v Value, err error) {
	defer recoverCompute("window compute", &err)
	return fn(start, end)
}

// Handler maintains the value of one metadata item. There is a 1-to-1
// relationship between in-use metadata items and handlers (Section
// 2.1): the first subscription creates the handler, later ones share
// it, and the last unsubscription removes it.
//
// A handler is a proxy between the item and its consumers: it
// synchronizes concurrent access and guarantees a consistent view of
// the value during updates.
type Handler interface {
	// Value returns the current metadata value under the handler's
	// update discipline.
	Value() (Value, error)
	// Mechanism identifies the update mechanism.
	Mechanism() Mechanism

	// bind files the inclusion ctx describes into the item behind the
	// handler and returns the item. A handler serves one inclusion:
	// Build must return a fresh one every time it runs.
	bind(ctx *BuildContext) (*item, error)
}

// ComputeFunc computes a metadata value at the given time.
type ComputeFunc func(now clock.Time) (Value, error)

// WindowComputeFunc computes a periodic metadata value for the time
// window [start, end). The initial value at subscription time is
// computed with start == end; rate-like computations must handle the
// zero-width window (typically by returning 0).
type WindowComputeFunc func(start, end clock.Time) (Value, error)

// valueSnapshot is one publication. Publishing swaps a pointer to the
// current snapshot, so Value() is a single atomic load and the read
// path never touches a mutex. A clean value is stored as it is; a
// publication whose error is not nil keeps its (value, error) pair out
// of line, in a record val points at — a *StaleError for a stale
// publication, which carries its value itself, a *pubRecord otherwise —
// so the error costs no bytes in the item or in the chunks of the
// publications that have none. Every reader goes through get.
type valueSnapshot struct {
	val Value
	// fbox is the inline storage of a float64 published via putFloat
	// (delta path): val's eface points at it, so the publish costs no
	// boxing allocation (see delta.go).
	fbox float64
}

// pubRecord is the out-of-line (value, error) of a publication: one
// whose error is not nil, or a clean value whose own dynamic type is a
// record type, boxed so that get never reads it as an error.
type pubRecord struct {
	val Value
	err error
}

// get returns the published (value, error) pair.
func (s *valueSnapshot) get() (Value, error) {
	switch r := s.val.(type) {
	case *pubRecord:
		return r.val, r.err
	case *StaleError:
		return r.val, r
	}
	return s.val, nil
}

// set stores (v, err) in a slot no reader holds yet, and returns it.
// Callers write a.slot().set(v, err): slot and set each fit the
// inliner's budget, and one function doing both would not, so a
// publication makes no call here.
func (s *valueSnapshot) set(v Value, err error) *valueSnapshot {
	if err != nil || isRecord(v) {
		v = &pubRecord{val: v, err: err}
	}
	s.val = v
	return s
}

// setStale is set for a stale publication: se is its own record.
func (s *valueSnapshot) setStale(se *StaleError) *valueSnapshot {
	s.val = se
	return s
}

// isRecord reports whether v's dynamic type is one get reads as a
// record.
func isRecord(v Value) bool {
	switch v.(type) {
	case *pubRecord, *StaleError:
		return true
	}
	return false
}

// snapAlloc hands out valueSnapshot slots from chunked backing arrays,
// amortizing the per-publish heap allocation that lock-free value
// publication would otherwise pay on every update. Slots are never
// reused, so a reader holding a snapshot pointer is always safe; a
// chunk becomes collectable once no reader references any of its
// slots. Callers must serialize slot calls (items publish under their
// mutex).
type snapAlloc struct {
	// first is the first chunk, inline: an item and the first value it
	// publishes are one allocation.
	first valueSnapshot
	// next is the slot to hand out next, nil before first is. A chunk
	// ends in a slot never handed out, its end mark: fbox is minus the
	// chunk's slot count, where a slot handed out starts at 0.
	next *valueSnapshot
}

var firstEnd = valueSnapshot{fbox: -1} // the inline chunk's end mark

// chunkSlots is the slot count of a full chunk. A chunk holds pointers
// and is larger than 512 B, so the runtime prefixes it with an 8-B
// header: 84 slots and the mark are 2,040 B, which with the header fill
// the 2,048-B size class exactly.
const chunkSlots = 84

// slot returns the next slot, freshly zeroed.
func (a *snapAlloc) slot() *valueSnapshot {
	s := a.next
	if s == nil {
		a.next = &firstEnd
		return &a.first
	}
	if s.fbox < 0 {
		// Grow geometrically from the single inline slot: an item that
		// only ever publishes once (create/destroy churn) allocates no
		// chunk at all, while a long-lived periodic item quickly reaches
		// full chunks (chunkSlots).
		n := min(-2*int(s.fbox), chunkSlots)
		c := make([]valueSnapshot, n+1)
		c[n].fbox = -float64(n)
		s = &c[0]
	}
	a.next = (*valueSnapshot)(unsafe.Add(unsafe.Pointer(s), unsafe.Sizeof(*s)))
	return s
}

// item is the one Handler implementation and the one object an in-use
// metadata item costs: its place in the registry and the dependency
// graph (the embedded entry), its published value, its breaker, and the
// update mechanism installed on it. The mechanism is a policy, not a type:
// it says when the item's compute runs (never / on read / at a window
// boundary / on notify) and carries the state that schedule needs.
// Everything else — how a computed result is published, how failures
// count against the breaker, how a quarantined item recovers — is the
// same code for every mechanism, and Registry.Migrate changes the
// mechanism of a live item by swapping the policy fields in place.
//
// The published value goes through an atomic snapshot pointer, so
// Value() of a publishing mechanism is lock-free: readers never
// contend with an update or with each other. This is what guarantees
// the isolation condition of Section 3 for periodic items — concurrent
// consumers never interfere with each other's measurements (contrast
// Figure 4, where naive on-demand rate computations by two consumers
// corrupt each other's counters).
//
// The fields the publish path reads first (cur, side, mu, the policy
// flags and the entry's version) share the first cache line.
type item struct {
	// cur is the published snapshot. Periodic and triggered items hold
	// one from start to stop, a static item from construction. An
	// on-demand item publishes nothing while healthy (nil: its reads
	// compute) and its stale last-good value while quarantined. nil
	// before start and after stop, where reads report ErrUnsubscribed.
	cur atomic.Pointer[valueSnapshot]

	// side is the side block (itemSide), nil while the item needs none.
	side atomic.Pointer[itemSide]

	// mu is the item mutex. It guards live, snaps, the policy fields
	// below and the breaker's lastGood, and it is held across every
	// maintenance compute (tick, refresh, probe, volatile on-demand
	// read), which is what serializes compute-and-publish against stop
	// and Migrate. That is safe because readers never take it — a
	// compute reaches other items through their lock-free snapshots —
	// and no caller holds one item's mutex while refreshing another
	// (propagation refreshes strictly one item at a time under the
	// scope lock). No scope lock is ever taken with mu held.
	mu sync.Mutex

	// The installed policy. start and Migrate write it holding the
	// scope lock and mu together, so holding either suffices to read
	// it; mech and win are atomic as well because Mechanism(), Value()
	// and a checkpoint read them holding neither.
	mech atomic.Int32
	// live is the one stale-publisher fence: set by start, cleared by
	// stop, both holding the scope lock and mu. Every compute path checks
	// it under mu before it runs, so nothing publishes for an item that
	// has been removed.
	live bool
	// pure records whether fn is a pure function of the declared
	// dependencies (Definition.Pure at start, AdaptSpec.Pure after a
	// migration); it decides memo engagement of an on-demand policy.
	pure        bool
	deltaLastOK bool // the entry's delta state (deltaLast), here to close the padding

	// entry is the structural half, guarded by the owning component's
	// lock; bind files it when the inclusion commits.
	entry

	snaps snapAlloc
	// fn is the compute of the on-read and on-notify policies.
	fn ComputeFunc
	// win is the at-a-boundary policy (periodic), nil otherwise.
	win atomic.Pointer[windowPolicy]
}

// itemSide is the side block: what few items use, kept off the item. On
// a breaker env it is the breaker (itemHealth embeds it), made at bind;
// elsewhere sideLocked makes it on first use, under the scope lock. It
// is never replaced once the item is bound, so a loaded one stays good.
type itemSide struct {
	// health is the item's circuit breaker, the itemHealth this block is
	// embedded in; nil on envs without WithBreaker and for static items.
	health *itemHealth
	// track, installed by Registry.TrackReads, counts value reads (Handle
	// reads and Registry.Peek) for the adaptive controller's sampling.
	track atomic.Pointer[shardedCounter]
	// watch, when non-nil, is the publication sink notified after every
	// version bump (watchgate.go). The cell is write-once: Watch installs
	// a fresh one, so a publisher may call through one it loaded.
	watch atomic.Pointer[WatchSink]
	// ds is the delta-aggregate state of an on-notify policy built by
	// NewDeltaAggregate, nil otherwise. Fixed at construction; its
	// mutable fields are guarded by the scope lock (see delta.go).
	ds *deltaState

	// The on-read policy's state (memo.go). mstate is stored fresh each
	// time memoization engages (env option + pure + stampable deps), and
	// is nil otherwise and whenever the item is not on-demand; nil keeps
	// the paper's recompute-per-access behaviour untouched.
	mstate atomic.Pointer[memoState]
	// memo is the current dependency-stamped snapshot; nil before the
	// first memoized compute, after a breaker trip, and after stop.
	memo atomic.Pointer[memoSnapshot]
	// flight is the in-flight coalesced compute, guarded by the item
	// mutex.
	flight *memoFlight
}

// sideLocked returns the item's side block, making it on first use. The
// scope lock must be held.
func (it *item) sideLocked() *itemSide {
	if s := it.side.Load(); s != nil {
		return s
	}
	s := new(itemSide)
	it.side.Store(s)
	return s
}

// breaker returns the item's circuit breaker, nil when it has none.
func (it *item) breaker() *itemHealth {
	if s := it.side.Load(); s != nil {
		return s.health
	}
	return nil
}

// delta returns the item's delta-aggregate state, nil unless the item
// is a delta aggregate.
func (it *item) delta() *deltaState {
	if s := it.side.Load(); s != nil {
		return s.ds
	}
	return nil
}

// windowPolicy is the periodic mechanism: compute over [winStart, now)
// at every window boundary. Boundary scheduling is delegated to the
// env's bucketed scheduler: the policy arms one clock.Task per pending
// boundary, whose Data is the policy itself, and all policies due at
// the same instant are dispatched as one batch (see batch.go). it,
// window and compute are immutable, so the dispatcher reads them
// without the item mutex; a migration to another window installs a new
// policy (and a tick dispatched under the old one finds it replaced).
type windowPolicy struct {
	it      *item
	window  clock.Duration
	compute WindowComputeFunc
	// winStart and task are guarded by it.mu. task is nil while the
	// item is quarantined: the trip unschedules the boundary cadence
	// and the recovery probe re-arms it on a fresh task.
	winStart clock.Time
	task     *clock.Task
	// missed is the newest boundary whose tick found a compute in
	// flight (0 when none is pending); see tick.
	missed atomic.Int64
}

// noteMissed raises missed to now.
func (w *windowPolicy) noteMissed(now clock.Time) {
	for {
		old := w.missed.Load()
		if old >= int64(now) || w.missed.CompareAndSwap(old, int64(now)) {
			return
		}
	}
}

func newItem(m Mechanism) *item {
	it := new(item)
	it.mech.Store(int32(m))
	return it
}

// NewStatic returns a handler for static metadata such as schema
// information or element sizes.
func NewStatic(v Value) Handler {
	it := newItem(StaticMechanism)
	// The value is given, not computed: serving it is not a publication,
	// and the item's version stays 0.
	it.cur.Store(it.snaps.slot().set(v, nil))
	return it
}

// NewOnDemand returns a handler that evaluates compute on each access.
// Use it for items that are rarely accessed, cheap to compute, or
// whose consumers need the exact value at access time (Section 3.2.1).
func NewOnDemand(compute ComputeFunc) Handler {
	it := newItem(OnDemandMechanism)
	it.fn = compute
	return it
}

// NewPeriodic returns a handler that recomputes its value every window
// time units. Information gathered during a window (via probes) is
// turned into the value published for the following window.
func NewPeriodic(window clock.Duration, compute WindowComputeFunc) Handler {
	if window <= 0 {
		panic("core: periodic window must be positive")
	}
	it := newItem(PeriodicMechanism)
	it.win.Store(&windowPolicy{it: it, window: window, compute: compute})
	return it
}

// NewTriggered returns a handler recomputed on dependency updates and
// on the events listed in the item's Definition. compute typically
// reads the item's dependency handles.
func NewTriggered(compute ComputeFunc) Handler {
	it := newItem(TriggeredMechanism)
	it.fn = compute
	return it
}

func (it *item) Mechanism() Mechanism { return Mechanism(it.mech.Load()) }

func (it *item) Value() (Value, error) {
	if s := it.cur.Load(); s != nil {
		return s.get()
	}
	return it.read()
}

// bind implements Handler. The item's registry is set here and never
// cleared, so it also marks an item that has served an inclusion.
func (it *item) bind(ctx *BuildContext) (*item, error) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.reg != nil {
		return nil, fmt.Errorf("core: handler of %s/%s is already bound to %s/%s (Build must return a fresh handler)",
			ctx.reg.id, ctx.Kind(), it.reg.id, it.kind())
	}
	it.reg, it.def, it.seq, it.ngroups, it.edges, it.nedges = ctx.reg, ctx.def, ctx.seq, ctx.ngroups, unsafe.SliceData(ctx.deps), int32(len(ctx.deps))
	if ctx.reg.env.breaker != nil && it.Mechanism() != StaticMechanism {
		// The breaker becomes the side block, keeping a delta state.
		h := &itemHealth{it: it}
		h.health, h.ds = h, it.delta()
		it.side.Store(&h.itemSide)
	}
	return it, nil
}

// start brings a bound item into service. includeLocked calls it once,
// under the scope lock, after the item committed — dependencies are
// included and started, so an initial compute may read them. An item a
// recovery holds a checkpointed publication for serves that instead of
// computing (restore.go).
func (it *item) start() {
	env := it.reg.env
	now := env.Now()
	it.mu.Lock()
	defer it.mu.Unlock()
	it.live = true
	m := it.Mechanism()
	switch m {
	case StaticMechanism:
		return
	case OnDemandMechanism:
		it.pure = it.def.pure
		it.sideLocked().mstate.Store(newMemoState(it, it.pure))
	}
	if ds := it.delta(); ds != nil {
		// Fix delta eligibility and register on the dependencies' delta
		// channels before the initial fold, so the fold reads the same
		// deltaLast values the accumulator will be patched from.
		ds.startLocked(env)
	}
	if w := it.win.Load(); w != nil {
		w.winStart = now
	}
	if ri := env.restoredFor(it.reg, it.kind()); ri != nil {
		it.restore(now, ri)
		return
	}
	if m == OnDemandMechanism {
		return
	}
	// Section 3.2.3: "values of metadata items with triggered handlers
	// are pre-computed on the first subscription"; a periodic item
	// publishes its zero-width initial window.
	it.accept(it.snapshot(now, false))
	it.arm(now)
}

// stop takes the item out of service when it is removed. A handle that
// outlives it reads ErrUnsubscribed and reports StaticMechanism.
func (it *item) stop() {
	it.mu.Lock()
	it.live = false
	it.mech.Store(int32(StaticMechanism))
	it.cur.Store(nil)
	if s := it.side.Load(); s != nil {
		s.mstate.Store(nil)
		s.memo.Store(nil)
	}
	it.disarm()
	it.mu.Unlock()
	// Retire the breaker and any armed recovery probe with the item.
	it.breaker().stop()
}

// arm schedules the first boundary of an installed window policy; a
// no-op for the other mechanisms. The scheduler coalesces every policy
// due at the same instant behind one clock event and delivers them in
// arm order, so same-instant fire order follows the scheduling
// sequence. it.mu must be held.
func (it *item) arm(now clock.Time) {
	if w := it.win.Load(); w != nil {
		w.task = &clock.Task{Data: w}
		it.reg.env.scheduler().At(now.Add(w.window), w.task)
	}
}

// disarm cancels the pending boundary, if any. Cancel retires the task
// for good — a concurrent dispatch that already detached it finds its
// re-arm ignored — so arming again takes a fresh task. it.mu must be
// held.
func (it *item) disarm() {
	if w := it.win.Load(); w != nil && w.task != nil {
		it.reg.env.scheduler().Cancel(w.task)
		w.task = nil
	}
}

// --- the one publish path ---

// store makes snap the served value: the snapshot pointer first, then
// the version (the single gate for watch sinks), so a reader observing
// version n sees the n-th value or a newer one. it.mu must be held.
func (it *item) store(snap *valueSnapshot) {
	it.cur.Store(snap)
	it.bumpVersion()
}

// accept publishes snap as a computed result and remembers a clean one
// as the last-good value. it.mu must be held.
func (it *item) accept(snap *valueSnapshot) {
	if h := it.breaker(); h != nil {
		// lastGood is only ever served while quarantined, so the
		// breaker-less hot path skips the pointer store (and its write
		// barrier).
		if _, err := snap.get(); err == nil {
			h.lastGood = snap
		}
	}
	it.store(snap)
}

// admit is the breaker ladder, run over the result of every
// maintenance compute. A success (an ordinary compute error is a
// legitimate result) resets the failure window. A panic or timeout
// counts toward the breaker: below the trip threshold the result is
// still served like any compute failure (degraded, still scheduled);
// at the threshold the item quarantines — its stale last-good value
// is published in the result's place — and admit reports false.
// it.mu must be held, so the stale publication and the trip are one
// atomic step from a reader's perspective.
func (it *item) admit(now clock.Time, err error) bool {
	h := it.breaker()
	if err == nil || !breakerEligible(err) {
		h.onSuccess()
		return true
	}
	if !h.onFailure(now, err) {
		return true
	}
	it.publishStale()
	return false
}

// publish is the one path from a maintenance compute to the served
// value: breaker ladder, snapshot store, last-good, version bump. The
// propagation that follows (announce) carries a quarantine's degraded
// view onward to dependents just like a fresh value.
func (it *item) publish(now clock.Time, snap *valueSnapshot) {
	if _, err := snap.get(); it.admit(now, err) {
		it.accept(snap)
	}
}

// publishStale puts the item into its quarantined serving state: the
// boundary cadence is unscheduled, the memo dropped, and the last-good
// value republished tagged *StaleError. It stands until a recovery
// probe succeeds. The breaker must already be open; it.mu must be held.
func (it *item) publishStale() {
	it.disarm()
	it.dropMemo()
	h := it.breaker()
	var last Value
	if lg := h.lastGood; lg != nil {
		last, _ = lg.get()
	}
	it.store(it.snaps.slot().setStale(h.staleError(last)))
}

// dropMemo discards an on-demand item's memo (its stamps cover
// dependencies, not whatever the caller is about to announce).
func (it *item) dropMemo() {
	if s := it.side.Load(); s != nil {
		s.memo.Store(nil)
	}
}

// snapshot runs the installed compute for the instant now — the
// window [winStart, now) of a window policy, else fn(now) — and wraps
// its result in a fresh snapshot, ready to publish. bounded applies the
// item's compute deadline; initial computes run on the subscriber's
// goroutine (possibly the clock-advancing one), where a deadline wait
// could never be released, and are never bounded. The full fold of a
// delta aggregate re-seeds the accumulator on the way, stamped with the
// write epoch captured before the fold read its inputs: a structural
// change racing the fold then invalidates the accumulator at the next
// refresh instead of being half-visible in it. it.mu must be held, and
// the scope lock too for a delta aggregate.
func (it *item) snapshot(now clock.Time, bounded bool) *valueSnapshot {
	env := it.reg.env
	epoch := env.writeEpoch.Load()
	env.stats.ComputeCalls.Add(1)
	var d clock.Duration
	if bounded {
		d = env.deadlineFor(it.def)
	}
	var v Value
	var err error
	if w := it.win.Load(); w != nil {
		v, err = boundedWindowCompute(env.clk, d, &env.stats, w.compute, w.winStart, now)
	} else {
		v, err = boundedCompute(env.clk, d, &env.stats, it.fn, now)
	}
	if ds := it.delta(); ds != nil {
		return ds.foldSnap(&it.snaps, v, err, epoch)
	}
	return it.snaps.slot().set(v, err)
}

// announce propagates the item's latest publication to its dependents.
// It takes the scope lock, so the caller must hold no item mutex;
// nothing depending on the item skips the scope lock entirely (the key
// to parallel periodic updates on the worker pool).
func (it *item) announce(now clock.Time) {
	if it.ndeps.Load() == 0 {
		return
	}
	env := it.reg.env
	sc := env.lockScope(it.reg)
	env.announceLocked(now, it)
	sc.unlock()
}

// clampLate moves now forward to the clock's position on an async
// updater: a pooled batch or probe may run after the clock has moved
// past its scheduled instant (Submit never blocks, so the clock
// goroutine can outpace the workers). Measuring up to the clock's
// current position makes the window cover exactly the probe events
// gathered since winStart, instead of attributing them all to the
// first lagging window and none to the rest. Inline updates run
// synchronously on the clock goroutine and are never late.
func (env *Env) clampLate(now clock.Time) clock.Time {
	if env.async {
		if cur := env.Now(); cur > now {
			return cur
		}
	}
	return now
}

// --- compute at a window boundary ---

// tick computes and publishes the window ending at now (clamped, see
// clampLate) without propagating, for a boundary dispatched under
// policy w. It reports the end of the newest window it published, or
// ok == false when the tick did nothing. The computation runs under
// the item mutex only, so independent scope batches execute in
// parallel on the worker pool and no structural lock is held while
// user code computes.
func (it *item) tick(w *windowPolicy, now clock.Time) (end clock.Time, ok bool) {
	if !it.mu.TryLock() {
		// The mutex is held across every compute of the item, so a tick
		// that finds it taken arrived while a window compute is still in
		// flight. It does not wait: waiting would park a pool worker
		// behind a slow compute at every boundary it misses, and start a
		// second compute on a hung item the moment its deadline frees
		// the mutex. It notes its boundary instead, and the holder runs
		// the newest noted boundary once it lets go (runMissed): windows
		// are cumulative, so one late compute covers every boundary
		// skipped meanwhile, and the last one is never lost. The holder
		// may have let go before the note landed, so the tick tries the
		// mutex once more through runMissed itself. Any other holder —
		// stop, Migrate, a probe — leaves the item in a state where the
		// note is moot.
		w.noteMissed(now)
		return it.runMissed(w)
	}
	end, ok = it.tickLocked(w, now)
	it.mu.Unlock()
	if e, o := it.runMissed(w); o {
		end, ok = e, true
	}
	return end, ok
}

// runMissed runs the newest boundary a skipped tick noted on w while
// the mutex is free, and reports the end of the window it published.
// A note found after a compute that panicked or timed out is dropped:
// re-running it would start a second compute on a hung item, and the
// next boundary covers its window.
func (it *item) runMissed(w *windowPolicy) (end clock.Time, ok bool) {
	for w.missed.Load() != 0 && it.mu.TryLock() {
		now := clock.Time(w.missed.Swap(0))
		var err error
		if s := it.cur.Load(); s != nil {
			_, err = s.get()
		}
		if now != 0 && !breakerEligible(err) {
			if e, o := it.tickLocked(w, now); o {
				end, ok = e, true
			}
		}
		it.mu.Unlock()
	}
	return end, ok
}

// tickLocked is tick's compute and publish; it.mu must be held.
func (it *item) tickLocked(w *windowPolicy, now clock.Time) (end clock.Time, ok bool) {
	if !it.live || it.win.Load() != w || it.breaker().isQuarantined() {
		// Stopped, migrated off w, or tripped since the boundary was
		// dispatched; a quarantined item's stale publication stands
		// until a probe succeeds.
		return 0, false
	}
	env := it.reg.env
	now = env.clampLate(now)
	if now <= w.winStart {
		// A worker pool may also execute batches out of order; a stale
		// tick must not overwrite a newer published value.
		return 0, false
	}
	env.stats.PeriodicUpdates.Add(1)
	it.publish(now, it.snapshot(now, true))
	if !it.breaker().isQuarantined() {
		// A trip leaves winStart in place: the recovery probe recomputes
		// the cumulative window [winStart, probe instant).
		w.winStart = now
	}
	return now, true
}

// --- compute on notify ---

// refresh recomputes and publishes a triggered item. Callers hold the
// scope lock (propagation, event fires), which is also what guards a
// delta aggregate's accumulator.
func (it *item) refresh(now clock.Time) {
	if ds := it.delta(); ds != nil {
		it.refreshDelta(ds, now)
		return
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if !it.live || it.breaker().isQuarantined() {
		// The stale publication stands; recovery goes through the probe,
		// not through trigger propagation (a quarantined compute re-run
		// on every upstream update would defeat the quarantine).
		return
	}
	it.reg.env.stats.TriggeredUpdates.Add(1)
	it.publish(now, it.snapshot(now, true))
}

// --- compute on read ---

// read is Value() for an item with nothing published: an on-demand
// item, whose reads compute — or one that is not in service.
func (it *item) read() (Value, error) {
	if it.Mechanism() != OnDemandMechanism || it.side.Load() == nil {
		// Not on-demand (any more), or not started. A migration away
		// publishes before it changes the mechanism, so a second look at
		// cur tells a migrated item from a stopped one.
		if s := it.cur.Load(); s != nil {
			return s.get()
		}
		return nil, ErrUnsubscribed
	}
	sd := it.side.Load()
	if ms := sd.mstate.Load(); ms != nil {
		// Memoized fast path: a hit is a few atomic pointer loads plus
		// the stamp walk — no mutex, no compute, no allocation. The
		// atomic memo load orders the snapshot's fields before this read.
		if m := sd.memo.Load(); m != nil && ms.memoValid(m) {
			ms.env.stats.MemoHits.Add(1)
			return m.val, m.err
		}
		return it.readMiss(sd, ms)
	}
	// The paper's on-demand read: recompute per access under the item
	// mutex. A deadline wait needs the clock to keep advancing, so
	// deadline-bounded on-demand reads must not be issued from the
	// clock-advancing goroutine itself.
	it.mu.Lock()
	defer it.mu.Unlock()
	if v, err, ok := it.readGate(); !ok {
		return v, err
	}
	env := it.reg.env
	env.stats.ComputeCalls.Add(1)
	env.stats.OnDemandComputes.Add(1)
	now := env.Now()
	v, err := boundedCompute(env.clk, env.deadlineFor(it.def), &env.stats, it.fn, now)
	return it.settle(now, v, err, nil)
}

// readGate re-checks, under the mutex, that a read which found nothing
// published must still compute. ok == false means it must not: the
// item stopped, or something was published while the read waited for
// the mutex — a trip's stale value (recovery goes through the armed
// probe, not through reads) or the first value of a publishing
// mechanism the item migrated to. Value() may run during trigger
// propagation with the scope lock held, so nothing on the read path
// may take structural locks.
func (it *item) readGate() (v Value, err error, ok bool) {
	if !it.live {
		return nil, ErrUnsubscribed, false
	}
	if s := it.cur.Load(); s != nil {
		v, err := s.get()
		return v, err, false
	}
	return nil, nil, true
}

// settle is publish for an on-demand compute: the same breaker ladder,
// but a result that passes it is served to the reader instead of
// published. What it leaves behind is the last-good value and — when
// the read was memoized and the result is a value of the pure function
// rather than a transient containment outcome — the stamped memo m.
// it.mu must be held.
func (it *item) settle(now clock.Time, v Value, err error, m *memoSnapshot) (Value, error) {
	if !it.admit(now, err) {
		return it.cur.Load().get()
	}
	if h := it.breaker(); err == nil && h != nil {
		h.keepLastGood(&it.snaps, v)
	}
	if m != nil && !breakerEligible(err) {
		// Publish the memo, then bump the version (publication order: a
		// dependent observing the new version sees this memo or a newer
		// one). Pure compute errors are memoized like values —
		// recomputing would fail identically.
		m.val, m.err = v, err
		it.side.Load().memo.Store(m)
		it.bumpVersion()
	}
	return v, err
}

// readMiss is the memoized slow path: revalidate under the mutex,
// coalesce onto an in-flight compute when one exists, else lead one
// compute outside the mutex and publish the stamped result.
func (it *item) readMiss(sd *itemSide, ms *memoState) (Value, error) {
	env := ms.env
	stats := &env.stats
	it.mu.Lock()
	if v, err, ok := it.readGate(); !ok {
		it.mu.Unlock()
		return v, err
	}
	// Double-check under the mutex: a leader that beat us here may have
	// published a valid memo while we blocked on the lock.
	if m := sd.memo.Load(); m != nil && ms.memoValid(m) {
		it.mu.Unlock()
		stats.MemoHits.Add(1)
		return m.val, m.err
	}
	if f := sd.flight; f != nil {
		// Coalesce: another reader is computing this miss. Wait off the
		// mutex so the leader can publish.
		it.mu.Unlock()
		stats.CoalescedReads.Add(1)
		<-f.done
		return f.val, f.err
	}
	f := &memoFlight{done: make(chan struct{})}
	sd.flight = f
	stats.MemoMisses.Add(1)
	stats.ComputeCalls.Add(1)
	stats.OnDemandComputes.Add(1)
	fn, deadline := it.fn, env.deadlineFor(it.def)
	it.mu.Unlock()

	// Warm memoized dependencies whose memo is not current before
	// capturing stamps: a cold dependency bumps its version when its
	// first read publishes its memo, and a stamp captured before that
	// bump would be immediately stale — costing one spurious miss per
	// chain level per read until convergence. Warming first lets a
	// dependency chain of any depth converge in a single read. No lock is
	// held here, so recursing into dependency read paths cannot deadlock.
	for _, od := range ms.depMemo {
		if od != nil && !od.memoCurrent() {
			od.Value()
		}
	}
	// Stamps are captured BEFORE the compute reads its inputs — the
	// order the exactness argument in memo.go depends on. They are
	// atomic loads and need no mutex.
	m := ms.captureStamps()

	// The compute runs outside the item mutex: hits and coalescing
	// waiters never queue behind user code. Panics are recovered inside
	// boundedCompute, so the flight is always delivered.
	now := env.Now()
	v, err := boundedCompute(env.clk, deadline, stats, fn, now)

	it.mu.Lock()
	if sd.flight == f {
		sd.flight = nil
	}
	if it.live && sd.mstate.Load() == ms {
		v, err = it.settle(now, v, err, m)
	}
	// Else the item stopped, migrated or re-decided its memo engagement
	// mid-compute: the result still answers this read and its waiters,
	// but there is nothing left to publish it to.
	it.mu.Unlock()
	f.deliver(v, err)
	return v, err
}

// --- recovery ---

// runProbe is the recovery probe of a quarantined item: recompute once
// under whichever policy is installed now. Success (or an ordinary
// compute error, which is a legitimate result) closes the breaker,
// publishes the result — an on-demand item goes back to computing on
// read instead — re-arms a window policy's boundary cadence, and
// propagates the recovery so dependents drop their degraded view;
// another panic or timeout re-arms the probe on doubled backoff. It
// runs on the updater with no locks held.
func (it *item) runProbe(now clock.Time) {
	it.mu.Lock()
	if !it.live {
		it.mu.Unlock()
		return
	}
	env := it.reg.env
	stats := &env.stats
	mech := it.Mechanism()
	if w := it.win.Load(); w != nil {
		now = env.clampLate(now)
		if now <= w.winStart {
			it.mu.Unlock()
			it.breaker().probeFailed(now, nil)
			return
		}
	}
	if mech == OnDemandMechanism {
		stats.OnDemandComputes.Add(1)
	}
	var snap *valueSnapshot
	if ds := it.delta(); ds != nil {
		// The probe runs without the scope lock, so it must not touch
		// the scope-guarded delta state: fold the live snapshots (the
		// accumulator stays invalid; the next locked refresh re-folds
		// and re-validates) and publish the finished float.
		stats.ComputeCalls.Add(1)
		snap = it.snaps.slot().set(boundedCompute(env.clk, env.deadlineFor(it.def), stats, ds.foldLive, now))
	} else {
		snap = it.snapshot(now, true)
	}
	h := it.breaker()
	v, err := snap.get()
	if breakerEligible(err) {
		it.mu.Unlock()
		h.probeFailed(now, err)
		return
	}
	h.closeBreaker()
	switch mech {
	case OnDemandMechanism:
		// Live again: reads compute fresh where they were served stale.
		// The memo stays dropped (since the trip) — the next read
		// recomputes with fresh stamps — and the bump makes dependent
		// memos stamped over this item revalidate.
		if err == nil {
			h.keepLastGood(&it.snaps, v)
		}
		it.cur.Store(nil)
		it.bumpVersion()
	case PeriodicMechanism:
		stats.PeriodicUpdates.Add(1)
		it.accept(snap)
		it.win.Load().winStart = now
		it.arm(now)
	default:
		stats.TriggeredUpdates.Add(1)
		it.accept(snap)
	}
	it.mu.Unlock()
	it.announce(now)
}

// inconsistency is VerifyIntegrity's invariant 7 for the item filed in
// slot sl: it describes the first way the item disagrees with its
// definition or its own installed policy, or returns "". The scope
// lock must be held (it guards the policy fields against Migrate); the
// item mutex is taken for the fields a tick or probe may move.
func (it *item) inconsistency(sl *slot) string {
	it.mu.Lock()
	defer it.mu.Unlock()
	sd, win := it.side.Load(), it.win.Load()
	memo := sd != nil && sd.mstate.Load() != nil
	var policy bool
	switch it.Mechanism() {
	case StaticMechanism:
		policy = it.fn == nil && win == nil && !memo
	case OnDemandMechanism:
		policy = it.fn != nil && win == nil && sd != nil
	case PeriodicMechanism:
		policy = win != nil && win.it == it && !memo
	case TriggeredMechanism:
		policy = it.fn != nil && win == nil && !memo
	}
	h := it.breaker()
	switch {
	case !it.live:
		return "item is not in service"
	case !policy:
		return fmt.Sprintf("item reports %v but another policy is installed", it.Mechanism())
	case win != nil && (win.task == nil) != h.isQuarantined():
		return "window policy's boundary task does not match the breaker state"
	case (it.delta() != nil) != (sl.rareFields().delta != nil):
		return "delta state does not match the definition's Delta spec"
	case (h != nil) != (it.reg.env.breaker != nil && it.Mechanism() != StaticMechanism):
		return "breaker presence does not match the env's WithBreaker"
	case h != nil && (h.it != it || &h.itemSide != sd):
		return "side block's breaker guards another item"
	}
	return ""
}
