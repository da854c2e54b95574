package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// Env is the graph-wide context shared by all registries of one query
// graph: the clock, the periodic updater, and the framework
// self-metrics.
//
// Locking follows the three-level scheme of Section 4.2 adapted to Go,
// with the graph level sharded by dependency scope (see scope.go):
// each connected component of the dependency relation over registries
// carries its own structural lock, and a structural operation —
// subscription, unsubscription, definition, event firing, trigger
// propagation, introspection — locks only the component(s) covering
// the registries it touches, in ascending component-id order when it
// spans several. Each Registry additionally carries a node-level
// RWMutex guarding its maps, and each handler guards its state with a
// metadata-level mutex while publishing its value through an atomic
// snapshot for lock-free reads. Go deliberately has no reentrant
// locks, so instead of reentrancy the framework enforces a strict lock
// order (component -> node -> item) and never calls back into
// structural operations while holding a node- or item-level lock.
type Env struct {
	clk     clock.Clock
	updater Updater
	stats   Stats

	// seq numbers entries in creation order for deterministic
	// propagation.
	seq atomic.Int64

	// writeEpoch counts structural mutations env-wide: every
	// subscribe/unsubscribe/redefine (any bumpStruct) advances it.
	// Memoized on-demand reads stamp the epoch at compute time and treat
	// any advance as an invalidation — a cheap, conservative guard that
	// lets the lock-free read path notice structural change without
	// touching component locks (see memo.go).
	writeEpoch atomic.Uint64

	// memoOnDemand enables dependency-stamped memoization for on-demand
	// handlers whose Definition declares Pure. Off by default: the
	// paper's on-demand contract is recompute-per-access.
	memoOnDemand bool

	// compSeq numbers dependency-scope components; ids define the
	// cross-component lock-acquisition order.
	compSeq atomic.Int64

	// deltaOff disables the delta channel: aggregates built with
	// NewDeltaAggregate refresh by full fold only (see delta.go). Set
	// by WithoutDeltaPropagation.
	deltaOff bool

	// async reports that the updater runs tasks off the submitting
	// goroutine (pool updater). Compute deadlines require it: with the
	// inline updater the compute runs on the clock-advancing goroutine,
	// so a deadline wait could never fire (the clock cannot advance
	// while its own callback blocks).
	async bool

	// deadline is the graph-wide per-compute deadline (0 = none); a
	// definition's ComputeDeadline overrides it per item.
	deadline clock.Duration

	// breaker, when non-nil, enables circuit-breaker quarantine for
	// handlers that repeatedly panic or time out.
	breaker *BreakerPolicy

	// sched is the lazily created bucketed deadline scheduler shared
	// by every periodic handler of the graph: all handlers due at one
	// instant cost a single clock event and arrive as one batch (see
	// batch.go).
	schedOnce sync.Once
	sched     *clock.Scheduler

	// tickMu guards the dispatch-side grouping scratch in batch.go.
	tickMu     sync.Mutex
	tickGroups []tickGroup

	// shapes interns the env's definition shapes by defShape.appendKey, built
	// in the reused shapeKey; shapeMu, a leaf lock, guards both (internShape).
	shapeMu  sync.Mutex
	shapes   map[string]*defShape
	shapeKey []byte

	// journal, when non-nil, receives every structural mutation in
	// commit order (see journal.go). The pointer-to-interface cell keeps
	// the no-journal hot path at one atomic load.
	journal atomic.Pointer[Journal]

	// restore, when non-nil, is the recovery-time lookup of checkpointed
	// publications consulted by start: an item it answers serves that
	// publication stale instead of computing (see restore.go). Installed
	// only for the duration of a recovery replay.
	restore atomic.Pointer[func(*Registry, Kind) *RestoredItem]
}

// EnvOption configures an Env.
type EnvOption func(*Env)

// WithUpdater selects the periodic-update executor (default: inline).
func WithUpdater(u Updater) EnvOption {
	return func(e *Env) { e.updater = u }
}

// WithoutDeltaPropagation disables the delta channel on an otherwise
// unchanged pipeline: publishers stop recording (old, new) transitions
// and every NewDeltaAggregate refresh runs the full fold, exactly the
// paper's triggered recompute. It is the delta path's kill-switch and
// the delta-off half of the model-based equivalence harness; the delta
// path is a pure optimization, so values are byte-identical with the
// option on or off.
func WithoutDeltaPropagation() EnvOption {
	return func(e *Env) { e.deltaOff = true }
}

// WithMemoizedOnDemand enables the versioned read path for on-demand
// items declared Pure: such an item caches its latest (value, error)
// together with the publication versions of its dependencies and the
// env write epoch, and a read that finds every stamp unchanged returns
// the cached pair with no mutex and no compute — exactly the value a
// recompute would produce, because a pure compute is a function of its
// dependencies alone. Reads that find a stamp changed recompute, and
// concurrent readers of the same miss coalesce behind a single compute
// (singleflight). Items not declared Pure — and every item when this
// option is off — keep the paper's recompute-per-access behaviour
// bit-for-bit.
func WithMemoizedOnDemand() EnvOption {
	return func(e *Env) { e.memoOnDemand = true }
}

// WithComputeDeadline bounds every metadata computation of the graph
// to d abstract time units: a compute still running at its deadline is
// abandoned (its eventual result fenced off by a generation counter)
// and the item publishes ErrComputeTimeout. A definition's
// ComputeDeadline overrides d per item; 0 keeps computations unbounded.
//
// Deadlines require an asynchronous updater (NewPoolUpdater): with the
// inline updater computations run on the clock-advancing goroutine,
// where a deadline could never fire. On inline envs the option is
// accepted but inert.
func WithComputeDeadline(d clock.Duration) EnvOption {
	return func(e *Env) { e.deadline = d }
}

// WithBreaker enables circuit-breaker quarantine: a handler whose
// computes fail (panic or deadline timeout) p.FailureThreshold times
// within p.FailureWindow trips to quarantine — it is unscheduled,
// serves its last-good value tagged with *StaleError, and is re-probed
// on exponential backoff until a success closes the breaker. Passing
// the zero BreakerPolicy selects DefaultBreakerPolicy.
func WithBreaker(p BreakerPolicy) EnvOption {
	return func(e *Env) {
		if p.FailureThreshold <= 0 {
			p = DefaultBreakerPolicy
		}
		e.breaker = &p
	}
}

// NewEnv returns an Env on the given clock.
func NewEnv(clk clock.Clock, opts ...EnvOption) *Env {
	e := &Env{clk: clk, updater: NewInlineUpdater(), shapes: make(map[string]*defShape)}
	for _, o := range opts {
		o(e)
	}
	if _, inline := e.updater.(inlineUpdater); !inline {
		e.async = true
	}
	if b, ok := e.updater.(statsBinder); ok {
		b.bindStats(&e.stats)
	}
	return e
}

// Clock returns the environment's clock.
func (e *Env) Clock() clock.Clock { return e.clk }

// Stats returns the framework self-metrics.
func (e *Env) Stats() *Stats { return &e.stats }

// Now returns the current time.
func (e *Env) Now() clock.Time { return e.clk.Now() }

// Quiesce blocks until every asynchronous metadata maintenance task
// submitted so far (periodic ticks and their trigger propagation on a
// pool updater) has completed. With the inline updater it returns
// immediately. It is the quiescence barrier used by the model-based
// correctness harness: after Quiesce — and with no concurrent
// structural operations — the metadata state is stable and can be
// compared against a reference model.
func (e *Env) Quiesce() { e.updater.WaitIdle() }

// HasBreaker reports whether circuit-breaker quarantine is enabled
// (WithBreaker). Recovery uses it to decide whether restored items can
// start in the quarantine-backed stale-serving state.
func (e *Env) HasBreaker() bool { return e.breaker != nil }

// nextSeq returns the next item creation sequence number.
func (e *Env) nextSeq() int64 { return e.seq.Add(1) }

// deadlineFor returns the compute deadline for def: the definition's
// override when set, else the graph-wide default. Always 0 (unbounded)
// on inline-updater envs, where a deadline wait would deadlock the
// clock.
func (e *Env) deadlineFor(def *defShape) clock.Duration {
	if !e.async {
		return 0
	}
	if def != nil && def.deadline > 0 {
		return def.deadline
	}
	return e.deadline
}

// scheduler returns the env's bucketed tick scheduler, creating it on
// first use so envs without periodic metadata never pay for one.
func (e *Env) scheduler() *clock.Scheduler {
	e.schedOnce.Do(func() {
		e.sched = clock.NewScheduler(e.clk, e.dispatchTicks)
	})
	return e.sched
}
