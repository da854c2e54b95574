package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// WindowComputeFunc computes a periodic metadata value for the time
// window [start, end). The initial value at subscription time is
// computed with start == end; rate-like computations must handle the
// zero-width window (typically by returning 0).
type WindowComputeFunc func(start, end clock.Time) (Value, error)

// periodicHandler publishes a new value at each window boundary and
// serves the published value to every consumer in between. This is the
// mechanism that guarantees the isolation condition of Section 3:
// concurrent consumers never interfere with each other's measurements
// (contrast Figure 4, where naive on-demand rate computations by two
// consumers corrupt each other's counters).
//
// The current value is published through an atomic snapshot pointer,
// so Value() is lock-free: readers never contend with the periodic
// update or with each other.
//
// Boundary scheduling is delegated to the env's bucketed scheduler:
// the handler arms one clock.Task per pending boundary, and all
// handlers due at the same instant are dispatched as one batch (see
// batch.go) instead of one ticker event + one updater submit each.
type periodicHandler struct {
	window  clock.Duration
	compute WindowComputeFunc

	// cur is the published value snapshot; nil before the handler
	// starts and again after it stops (reads then report
	// ErrUnsubscribed).
	cur atomic.Pointer[valueSnapshot]

	mu       sync.Mutex
	env      *Env
	e        *entry
	snaps    snapAlloc
	winStart clock.Time
	task     *clock.Task
	stopped  bool
	// async records whether updates run asynchronously to the clock
	// (pool updater): only then can a tick lag behind the clock and
	// need its window end clamped to the clock's current position.
	async bool

	// deadline bounds each window compute (0 = unbounded), resolved
	// from the definition/env at start.
	deadline clock.Duration
	// health is the item's circuit breaker, nil unless the env enables
	// WithBreaker.
	health *itemHealth
	// lastGood is the latest successfully published snapshot; it is
	// what a quarantined handler serves, tagged *StaleError.
	lastGood *valueSnapshot
}

// NewPeriodic returns a handler that recomputes its value every window
// time units. Information gathered during a window (via probes) is
// turned into the value published for the following window.
func NewPeriodic(window clock.Duration, compute WindowComputeFunc) Handler {
	if window <= 0 {
		panic("core: periodic window must be positive")
	}
	return &periodicHandler{window: window, compute: compute}
}

func (h *periodicHandler) Value() (Value, error) {
	s := h.cur.Load()
	if s == nil {
		return nil, ErrUnsubscribed
	}
	return s.val, s.err
}

func (h *periodicHandler) Mechanism() Mechanism { return PeriodicMechanism }

// Window returns the handler's update period.
func (h *periodicHandler) Window() clock.Duration { return h.window }

func (h *periodicHandler) start(e *entry) error {
	env := e.reg.env
	now := env.Now()
	h.mu.Lock()
	h.env = env
	h.e = e
	h.winStart = now
	h.async = env.async
	h.deadline = env.deadlineFor(e.def)
	h.health = newItemHealth(env, h)
	if env.restorePendingFor(e.reg, e.kind()) {
		// Recovery replay: skip the initial compute — RestoreStale will
		// re-publish the checkpointed last-good value before the plane is
		// exposed — but still arm the boundary cadence below so an item
		// that turns out to have no checkpoint snapshot updates normally.
		h.cur.Store(h.snaps.put(nil, ErrNoValue))
		e.bumpVersion()
	} else {
		env.Stats().ComputeCalls.Add(1)
		// The initial compute runs on the subscriber's goroutine (possibly
		// the clock-advancing one), where a deadline wait could never be
		// released; deadlines apply to maintenance computes only.
		v, err := safeWindowCompute(h.compute, now, now)
		snap := h.snaps.put(v, err)
		h.cur.Store(snap)
		e.bumpVersion()
		if err == nil {
			h.lastGood = snap
		}
	}
	h.task = &clock.Task{Data: h}
	task := h.task
	h.mu.Unlock()
	// Arm the first boundary. The scheduler coalesces every handler
	// due at the same instant behind one clock event and delivers them
	// in arm order, so same-instant fire order still follows the
	// scheduling sequence exactly as with per-handler tickers.
	env.scheduler().At(now.Add(h.window), task)
	return nil
}

// entry returns the handler's entry, or nil once stopped. Used by the
// batch dispatcher to group due handlers by dependency scope.
func (h *periodicHandler) entry() *entry {
	h.mu.Lock()
	e := h.e
	h.mu.Unlock()
	return e
}

// publish computes and publishes the window ending at now (clamped to
// the clock for lagging pool batches) without propagating. It returns
// the handler's entry and the actual window end, or ok == false when
// the handler is stopped or the tick is stale. The computation runs
// under the handler's own (metadata-level) lock only, so independent
// scope batches execute in parallel on the worker pool, and no
// structural lock is held while user code computes.
func (h *periodicHandler) publish(now clock.Time) (e *entry, end clock.Time, ok bool) {
	h.mu.Lock()
	if h.stopped || h.e == nil {
		h.mu.Unlock()
		return nil, 0, false
	}
	if h.health.isQuarantined() {
		// A batch queued before the breaker tripped may still reach a
		// quarantined handler; the stale publication stands until a
		// probe succeeds.
		h.mu.Unlock()
		return nil, 0, false
	}
	e = h.e
	start := h.winStart
	env := h.env
	// A pooled batch may run after the clock has moved past its
	// scheduled boundary (Submit never blocks, so the clock goroutine
	// can outpace the workers). Measure up to the clock's current
	// position: the window then covers exactly the probe events
	// gathered since winStart instead of attributing them all to the
	// first lagging window and none to the rest. Inline batches run
	// synchronously on the clock goroutine and are never late.
	if h.async {
		if cur := env.Now(); cur > now {
			now = cur
		}
	}
	if now <= start {
		// A worker pool may also execute batches out of order; a stale
		// tick must not overwrite a newer published value.
		h.mu.Unlock()
		return nil, 0, false
	}
	stats := env.Stats()
	stats.ComputeCalls.Add(1)
	stats.PeriodicUpdates.Add(1)
	var v Value
	var err error
	if h.deadline > 0 {
		v, err = boundedWindowCompute(env.clk, h.deadline, stats, h.compute, start, now)
	} else {
		v, err = safeWindowCompute(h.compute, start, now)
	}
	if err == nil || !breakerEligible(err) {
		h.health.onSuccess()
		snap := h.snaps.put(v, err)
		h.cur.Store(snap)
		e.bumpVersion()
		if err == nil && h.health != nil {
			// lastGood is only ever served while quarantined, so the
			// breaker-less hot path skips the pointer store (and its
			// write barrier).
			h.lastGood = snap
		}
		h.winStart = now
		h.mu.Unlock()
		return e, now, true
	}
	// Panic or timeout: count it toward the breaker. Below the trip
	// threshold the error publishes like any compute failure (degraded,
	// still scheduled); at the threshold the handler quarantines —
	// unscheduled from the boundary cadence, last-good value republished
	// tagged *StaleError, recovery probe armed on backoff — and the
	// publication still propagates so dependents observe the
	// degradation.
	if h.health.onFailure(now, err) {
		if t := h.task; t != nil {
			h.task = nil
			env.scheduler().Cancel(t)
		}
		var lastVal Value
		if h.lastGood != nil {
			lastVal = h.lastGood.val
		}
		h.cur.Store(h.snaps.put(lastVal, h.health.staleError()))
		e.bumpVersion()
		// winStart is left in place: the recovery probe recomputes the
		// cumulative window [winStart, probe instant].
		h.mu.Unlock()
		return e, now, true
	}
	h.cur.Store(h.snaps.put(v, err))
	e.bumpVersion()
	h.winStart = now
	h.mu.Unlock()
	return e, now, true
}

// runProbe implements quarantineOwner: recompute once; success (or an
// ordinary compute error, which is a legitimate result) closes the
// breaker, republishes, re-arms the boundary cadence on a fresh task
// (Cancel retired the old one), and propagates the recovery to
// dependents; another panic/timeout re-arms the probe on doubled
// backoff. It runs on the updater with no locks held.
func (h *periodicHandler) runProbe(now clock.Time) {
	h.mu.Lock()
	if h.stopped || h.e == nil {
		// Stopped or migrated away. Report a no-op failure so the probe
		// re-arms: after a real stop the health state is stopped and the
		// report is inert, while after a migration the re-armed probe
		// reaches the replacement handler (the transplanted owner).
		h.mu.Unlock()
		h.health.probeFailed(now, nil)
		return
	}
	env := h.env
	start := h.winStart
	if h.async {
		if cur := env.Now(); cur > now {
			now = cur
		}
	}
	if now <= start {
		h.mu.Unlock()
		h.health.probeFailed(now, nil)
		return
	}
	stats := env.Stats()
	stats.ComputeCalls.Add(1)
	v, err := boundedWindowCompute(env.clk, h.deadline, stats, h.compute, start, now)
	if err != nil && breakerEligible(err) {
		h.mu.Unlock()
		h.health.probeFailed(now, err)
		return
	}
	stats.PeriodicUpdates.Add(1)
	snap := h.snaps.put(v, err)
	h.cur.Store(snap)
	h.e.bumpVersion()
	if err == nil {
		h.lastGood = snap
	}
	h.winStart = now
	h.health.closeBreaker()
	h.task = &clock.Task{Data: h}
	task := h.task
	e := h.e
	h.mu.Unlock()
	env.scheduler().At(now.Add(h.window), task)
	if e.ndeps.Load() > 0 {
		sc := env.lockScope(e.reg)
		if e.deltaDeps > 0 {
			notifyDeltaLocked(e)
		}
		e.reg.propagateLocked(e, now)
		sc.unlock()
	}
}

// healthSnapshot implements healthCarrier.
func (h *periodicHandler) healthSnapshot() HealthSnapshot { return h.health.snapshot() }

// tick is the legacy per-handler update path, kept for the
// WithPerHandlerTicks ablation: publish, then propagate this
// handler's update alone under the scope lock.
func (h *periodicHandler) tick(now clock.Time) {
	e, end, ok := h.publish(now)
	if !ok {
		return
	}
	if e.ndeps.Load() > 0 {
		env := e.reg.env
		sc := env.lockScope(e.reg)
		if e.deltaDeps > 0 {
			notifyDeltaLocked(e)
		}
		e.reg.propagateLocked(e, end)
		sc.unlock()
	}
}

func (h *periodicHandler) stop() {
	h.mu.Lock()
	h.stopped = true
	h.e = nil
	h.cur.Store(nil)
	t := h.task
	env := h.env
	h.task = nil
	h.mu.Unlock()
	if t != nil && env != nil {
		// Cancel retires the task permanently: a concurrent dispatch
		// that already detached it will find its re-arm ignored.
		env.scheduler().Cancel(t)
	}
	// Retire the breaker (and any armed recovery probe) with the
	// handler.
	h.health.stop()
}
