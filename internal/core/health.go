package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Degraded-mode maintenance: compute deadlines and circuit-breaker
// quarantine.
//
// The paper's metadata-on-demand design assumes compute functions are
// cheap and well-behaved; a production stream processor cannot. This
// file contains the containment layer: a bounded compute runner that
// abandons a computation at its deadline (the abandoned goroutine is
// fenced by a generation claim so its late result can never clobber a
// newer publication), and a per-item circuit breaker that trips a
// repeatedly failing item into quarantine — the item is unscheduled,
// serves its last-good value tagged *StaleError, and is re-probed on
// exponential backoff through the env's bucketed scheduler until a
// success closes the breaker.
//
// Health state machine per item. The breaker belongs to the item, not
// to its mechanism: a migration leaves it — failure history,
// quarantine, armed probe and backoff — exactly where it is, and the
// next probe recovers through whatever policy is installed by then.
//
//	            failure                 threshold reached
//	Healthy ────────────▶ Degraded ────────────────────────▶ Quarantined
//	   ▲                      │                                  │
//	   │        success       │                     backoff timer fires
//	   │◀─────────────────────┘                                  ▼
//	   │                                                      Probing
//	   │                probe succeeds                           │
//	   └─────────────────────────────────────────────────────────┘
//	                     (probe fails: backoff doubles, ──▶ Quarantined)
//
// Lock order: item mutex -> itemHealth.mu -> scheduler/clock
// internals. The lock-free value read path never touches itemHealth.

// BreakerPolicy configures circuit-breaker quarantine (WithBreaker).
type BreakerPolicy struct {
	// FailureThreshold is the number of breaker-eligible failures
	// (panics and deadline timeouts) within FailureWindow that trips
	// the handler into quarantine.
	FailureThreshold int
	// FailureWindow is the sliding window over which failures count.
	FailureWindow clock.Duration
	// ProbeBackoff is the delay before the first recovery probe of a
	// quarantined handler.
	ProbeBackoff clock.Duration
	// MaxProbeBackoff caps the exponential probe backoff.
	MaxProbeBackoff clock.Duration
}

// DefaultBreakerPolicy is the policy selected by WithBreaker with a
// zero FailureThreshold: trip after 3 failures within 1000 time units,
// probe after 50 units doubling up to 1600.
var DefaultBreakerPolicy = BreakerPolicy{
	FailureThreshold: 3,
	FailureWindow:    1000,
	ProbeBackoff:     50,
	MaxProbeBackoff:  1600,
}

// HealthState is a handler's position in the degraded-operation state
// machine.
type HealthState int

const (
	// Healthy: no recent breaker-eligible failures.
	Healthy HealthState = iota
	// Degraded: at least one recent failure, breaker not yet tripped.
	Degraded
	// Quarantined: the breaker tripped; the handler is unscheduled and
	// serves its last-good value tagged *StaleError until a probe
	// succeeds.
	Quarantined
	// Probing: a recovery probe is in flight.
	Probing
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Probing:
		return "probing"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// StaleError tags the value served by a quarantined handler. Reads
// return (lastGoodValue, *StaleError): callers that treat any error as
// fatal fail safe, while degrade-aware consumers detect the condition
// with errors.Is(err, ErrStale) and keep operating on the stale value.
type StaleError struct {
	// Cause is the failure that tripped the breaker.
	Cause error
	// Since is the instant the breaker tripped.
	Since clock.Time

	// val is the last-good value the stale publication serves: the
	// error is the publication's out-of-line record (item.go).
	val Value
	// env is the item's env, whose clock Age reads; nil when the value
	// was built outside core.
	env *Env
}

// Error implements error.
func (e *StaleError) Error() string {
	return fmt.Sprintf("%v (stale for %d since %d: %v)",
		ErrStale, e.Age(), e.Since, e.Cause)
}

// Age returns how long the handler has been serving this stale value —
// evaluated against the live clock, so the age grows while quarantine
// lasts. A StaleError built outside core has no clock: its Age is 0.
func (e *StaleError) Age() clock.Duration {
	if e.env == nil {
		return 0
	}
	return e.env.Now().Sub(e.Since)
}

// Unwrap lets errors.Is see both the ErrStale marker and the
// underlying cause (e.g. ErrComputeTimeout).
func (e *StaleError) Unwrap() []error { return []error{ErrStale, e.Cause} }

// HealthSnapshot is a point-in-time view of one handler's breaker
// state, surfaced through Registry.Health and monitor snapshots.
type HealthSnapshot struct {
	State HealthState
	// RecentFailures counts breaker-eligible failures inside the
	// policy's sliding window.
	RecentFailures int
	// Since is the quarantine instant (zero time unless quarantined or
	// probing).
	Since clock.Time
	// StaleFor is the age of the stale value being served (0 unless
	// quarantined or probing).
	StaleFor clock.Duration
	// Cause is the failure that tripped the breaker, if tripped.
	Cause error
}

// itemHealth is the per-item circuit breaker and, with it, the item's
// side block (item.go). It exists only when the env enables WithBreaker;
// every method is safe on a nil receiver so items call the bookkeeping
// hooks unconditionally — the healthy hot path with no breaker
// configured pays a single nil check.
type itemHealth struct {
	itemSide
	// it is the item the breaker guards; a fired probe runs it.runProbe.
	it *item

	// lastGood is the latest cleanly computed value, republished tagged
	// *StaleError while quarantined. It lives with the breaker because
	// nothing else ever serves it; guarded by the item mutex, not mu.
	// scratch is the slot keepLastGood records into: never published,
	// so no reader can hold it and the next value may overwrite it.
	lastGood *valueSnapshot
	scratch  *valueSnapshot

	// st is the HealthState. Transitions hold mu (setStateLocked); the
	// publish path reads it lock-free on every compute (isQuarantined,
	// the onSuccess fast path), so it must not pay the mutex.
	st      atomic.Int32
	stopped bool // guarded by mu

	mu       sync.Mutex
	failures []clock.Time // breaker-eligible failure instants, pruned to the window
	cause    error
	since    clock.Time
	backoff  clock.Duration
	// probeTask is the armed recovery probe; its Data points back at
	// this itemHealth so the tick dispatcher can route it.
	probeTask *clock.Task
}

func (ih *itemHealth) env() *Env { return ih.it.reg.env }

func (ih *itemHealth) state() HealthState { return HealthState(ih.st.Load()) }

// keepLastGood records a clean value that is not being published: an
// on-demand result, served to its reader. A trip copies the value into
// the *StaleError it publishes, so the slot stays private to the
// breaker and is reused. The item mutex must be held.
func (ih *itemHealth) keepLastGood(a *snapAlloc, v Value) {
	if ih.scratch == nil {
		ih.scratch = a.slot()
	}
	ih.scratch.set(v, nil)
	ih.lastGood = ih.scratch
}

// breakerEligible reports whether err counts toward tripping the
// breaker: panics and deadline timeouts do, ordinary compute errors
// (a Value()-returned error is a legitimate result) do not. A
// stale-tagged error never counts: it means an upstream breaker is
// already containing the fault — the local compute completed promptly,
// and quarantining dependents of a quarantined item would cascade the
// outage instead of degrading it.
func breakerEligible(err error) bool {
	if err == nil || errors.Is(err, ErrStale) {
		return false
	}
	return errorsIsAny(err, ErrComputePanic, ErrComputeTimeout)
}

// setStateLocked transitions the state machine; callers hold mu.
func (ih *itemHealth) setStateLocked(s HealthState) { ih.st.Store(int32(s)) }

// onSuccess records a successful compute, resetting the failure window.
// An item that is already Healthy has nothing to reset (Healthy implies
// an empty failure window), so the steady-state success path is a
// single atomic load — kept apart from the reset so that it inlines
// into the publish path.
func (ih *itemHealth) onSuccess() {
	if ih != nil && ih.st.Load() != int32(Healthy) {
		ih.resetFailures()
	}
}

func (ih *itemHealth) resetFailures() {
	ih.mu.Lock()
	if ih.state() == Degraded {
		ih.setStateLocked(Healthy)
		ih.failures = ih.failures[:0]
		ih.cause = nil
	}
	ih.mu.Unlock()
}

// onFailure records a breaker-eligible failure at now and reports
// whether the breaker tripped on this failure. When it trips, the
// probe is armed internally; the caller (item.admit) publishes the
// stale value before releasing the item mutex it holds, so the stale
// publication and the trip are one atomic step from a reader's
// perspective.
func (ih *itemHealth) onFailure(now clock.Time, err error) (tripped bool) {
	if ih == nil {
		return false
	}
	ih.mu.Lock()
	defer ih.mu.Unlock()
	if ih.stopped || ih.isQuarantined() {
		return false
	}
	policy := ih.env().breaker
	cutoff := now.Add(-policy.FailureWindow)
	kept := ih.failures[:0]
	for _, t := range ih.failures {
		if t > cutoff {
			kept = append(kept, t)
		}
	}
	ih.failures = append(kept, now)
	if len(ih.failures) < policy.FailureThreshold {
		ih.setStateLocked(Degraded)
		ih.cause = err
		return false
	}
	ih.setStateLocked(Quarantined)
	ih.cause = err
	ih.since = now
	ih.backoff = policy.ProbeBackoff
	ih.env().stats.BreakerTrips.Add(1)
	ih.armProbeLocked(now)
	return true
}

// forceQuarantine administratively trips the breaker at now with the
// given cause — no failure history required — and arms the first
// recovery probe on the policy's initial backoff. Used by crash
// recovery (restore.go) to park restored items in the stale-serving
// state; deliberately not counted in Stats.BreakerTrips, which counts
// failure-driven trips. A no-op if the breaker is already open.
func (ih *itemHealth) forceQuarantine(now clock.Time, cause error) {
	if ih == nil {
		return
	}
	ih.mu.Lock()
	defer ih.mu.Unlock()
	if ih.stopped || ih.isQuarantined() {
		return
	}
	ih.setStateLocked(Quarantined)
	ih.cause = cause
	ih.since = now
	ih.backoff = ih.env().breaker.ProbeBackoff
	ih.armProbeLocked(now)
}

// staleError returns the *StaleError to publish for the current
// quarantine, serving last. Must be called after onFailure tripped (or
// while quarantined).
func (ih *itemHealth) staleError(last Value) *StaleError {
	ih.mu.Lock()
	defer ih.mu.Unlock()
	return &StaleError{Cause: ih.cause, Since: ih.since, val: last, env: ih.env()}
}

// armProbeLocked arms the next recovery probe backoff units after now.
// Probes ride the env's bucketed scheduler like periodic boundaries;
// the task's Data routes the fire back here via probeFired.
func (ih *itemHealth) armProbeLocked(now clock.Time) {
	if ih.stopped {
		return
	}
	if ih.probeTask == nil {
		ih.probeTask = &clock.Task{Data: ih}
	}
	ih.env().scheduler().At(now.Add(ih.backoff), ih.probeTask)
}

// probeFired is called by the tick dispatcher when the probe backoff
// elapses. The probe compute itself runs on the updater (it is user
// code and may be slow); probes are never submitted sheddable — losing
// one would strand the handler in quarantine for a full extra backoff.
func (ih *itemHealth) probeFired(now clock.Time) {
	ih.mu.Lock()
	if ih.stopped || ih.state() != Quarantined {
		ih.mu.Unlock()
		return
	}
	ih.setStateLocked(Probing)
	ih.mu.Unlock()
	if env := ih.env(); env.async {
		env.updater.Submit(func() { ih.it.runProbe(now) })
	} else {
		ih.it.runProbe(now)
	}
}

// probeFailed records an unsuccessful probe: the breaker stays open
// and the next probe is armed on doubled (capped) backoff.
func (ih *itemHealth) probeFailed(now clock.Time, err error) {
	if ih == nil {
		return
	}
	ih.mu.Lock()
	defer ih.mu.Unlock()
	if ih.stopped || ih.state() != Probing {
		return
	}
	ih.setStateLocked(Quarantined)
	if err != nil {
		ih.cause = err
	}
	ih.backoff *= 2
	ih.backoff = min(ih.backoff, ih.env().breaker.MaxProbeBackoff)
	ih.armProbeLocked(now)
}

// closeBreaker records a successful probe: the breaker closes and the
// item is healthy again. runProbe republishes and reschedules around
// this call.
func (ih *itemHealth) closeBreaker() {
	if ih == nil {
		return
	}
	ih.mu.Lock()
	defer ih.mu.Unlock()
	if !ih.isQuarantined() {
		return
	}
	ih.setStateLocked(Healthy)
	ih.failures = ih.failures[:0]
	ih.cause = nil
	ih.since = 0
	ih.backoff = 0
	ih.env().stats.BreakerRecoveries.Add(1)
}

// isQuarantined reports whether the item currently serves stale
// values (quarantined or probing). Lock-free: it runs on every publish.
func (ih *itemHealth) isQuarantined() bool {
	if ih == nil {
		return false
	}
	s := HealthState(ih.st.Load())
	return s == Quarantined || s == Probing
}

// stop retires the breaker when its item stops, canceling any armed
// probe.
func (ih *itemHealth) stop() {
	if ih == nil {
		return
	}
	ih.mu.Lock()
	ih.stopped = true
	t := ih.probeTask
	ih.probeTask = nil
	ih.mu.Unlock()
	if t != nil {
		ih.env().scheduler().Cancel(t)
	}
}

// snapshot returns the current health view.
func (ih *itemHealth) snapshot() HealthSnapshot {
	if ih == nil {
		return HealthSnapshot{State: Healthy}
	}
	ih.mu.Lock()
	defer ih.mu.Unlock()
	hs := HealthSnapshot{
		State:          ih.state(),
		RecentFailures: len(ih.failures),
		Cause:          ih.cause,
	}
	if ih.isQuarantined() {
		hs.Since = ih.since
		hs.StaleFor = ih.env().clk.Now().Sub(ih.since)
	}
	return hs
}

// Health returns the degraded-operation state of an included item.
// Items whose handlers carry no breaker (static handlers, or envs
// without WithBreaker) report Healthy. The second result is false if
// the item is not included.
func (r *Registry) Health(kind Kind) (HealthSnapshot, bool) {
	it := r.entryOf(kind)
	if it == nil {
		return HealthSnapshot{}, false
	}
	return it.breaker().snapshot(), true
}

// --- Bounded computes ---

// deadlineGrace is how long a compute whose deadline expired may still
// deliver its result. A deadline is in clock time but a compute runs in
// real time: the virtual clock can jump past a deadline in no real time
// at all, while a compute that never blocks is still waiting for a
// processor.
const deadlineGrace = 10 * time.Millisecond

type computeResult struct {
	v   Value
	err error
}

// runBounded executes compute under deadline d on clk. The result is
// claimed through a generation fence (gen): the compute goroutine and
// the deadline each try to advance the fence exactly once, and only
// the winner's outcome is published. A compute still running at its
// deadline is abandoned — runBounded returns ErrComputeTimeout, the
// worker slot is released — and when the straggler eventually
// finishes, the fence rejects its result (counted in Stats.LateResults)
// so a late value can never clobber a newer publication.
//
// The deadline event is armed before the compute goroutine is spawned:
// on the virtual clock this makes timeout delivery deterministic — the
// event is in the clock's queue before any advancement can run, so a
// test advancing past the deadline always observes the timeout.
//
// A timed-out compute's goroutine keeps running until the user code
// returns; compute functions used with deadlines must tolerate such a
// straggler executing concurrently with later computes (pure functions
// trivially do).
func runBounded(clk clock.Clock, d clock.Duration, stats *Stats, compute func() (Value, error)) (Value, error) {
	var gen atomic.Uint32 // 0 = undecided, 1 = claimed
	done := make(chan computeResult, 1)
	timeout := make(chan struct{})
	ev := clk.Schedule(clk.Now().Add(d), func(clock.Time) { close(timeout) })
	go func() {
		v, err := compute()
		if gen.CompareAndSwap(0, 1) {
			done <- computeResult{v, err}
		} else {
			// Fenced off: the deadline already published
			// ErrComputeTimeout for this generation.
			stats.LateResults.Add(1)
		}
	}()
	select {
	case r := <-done:
		clk.Cancel(ev)
		return r.v, r.err
	case <-timeout:
		// The clock may have outrun the compute (see deadlineGrace): a
		// result that arrives within the grace still wins.
		select {
		case r := <-done:
			return r.v, r.err
		case <-time.After(deadlineGrace):
		}
		if gen.CompareAndSwap(0, 1) {
			stats.Timeouts.Add(1)
			return nil, ErrComputeTimeout
		}
		// The compute claimed the fence at the same instant; its result
		// is in flight and wins.
		r := <-done
		return r.v, r.err
	}
}

// boundedCompute runs an on-demand/triggered compute with panic
// recovery, under deadline d when d > 0.
func boundedCompute(clk clock.Clock, d clock.Duration, stats *Stats, fn ComputeFunc, now clock.Time) (Value, error) {
	if d <= 0 {
		return safeCompute(fn, now)
	}
	return runBounded(clk, d, stats, func() (Value, error) {
		return safeCompute(fn, now)
	})
}

// boundedWindowCompute runs a periodic window compute with panic
// recovery, under deadline d when d > 0.
func boundedWindowCompute(clk clock.Clock, d clock.Duration, stats *Stats, fn WindowComputeFunc, start, end clock.Time) (Value, error) {
	if d <= 0 {
		return safeWindowCompute(fn, start, end)
	}
	return runBounded(clk, d, stats, func() (Value, error) {
		return safeWindowCompute(fn, start, end)
	})
}

// errorsIsAny reports whether err matches any of the targets.
func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
