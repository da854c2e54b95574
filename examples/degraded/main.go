// Degraded demonstrates degraded-mode maintenance: a selectivity
// estimator whose computation starts hanging (e.g. the estimator
// samples a stuck external catalog) is caught by the compute deadline,
// quarantined by the circuit breaker after repeated timeouts, and
// served from its last-good value — tagged stale, so consumers can
// tell — until a recovery probe finds it healthy again.
//
// The demo walks the full breaker lifecycle on a worker-pool updater:
//
//	healthy -> deadline timeouts -> quarantined (stale reads)
//	        -> fault heals -> backoff probe -> healthy again
//
// Late results of abandoned (hung) computations are fenced off by a
// generation counter: they are counted, never published.
//
// Run with:
//
//	go run ./examples/degraded
package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/pipes"
)

// estimator is the demo's faulty selectivity estimator: while the
// fault is engaged every estimate blocks at the gate (a stuck catalog
// lookup) until heal releases it.
type estimator struct {
	mu      sync.Mutex
	blocked chan struct{} // non-nil while the fault is engaged
	caught  int
}

func (e *estimator) engage() {
	e.mu.Lock()
	e.blocked = make(chan struct{})
	e.mu.Unlock()
}

func (e *estimator) heal() {
	e.mu.Lock()
	if e.blocked != nil {
		close(e.blocked)
		e.blocked = nil
	}
	e.mu.Unlock()
}

// estimate computes the selectivity estimate for [start, end). The
// value is a deterministic stand-in for a real estimator.
func (e *estimator) estimate(start, end pipes.Time) (pipes.MetaValue, error) {
	e.mu.Lock()
	ch := e.blocked
	if ch != nil {
		e.caught++
	}
	e.mu.Unlock()
	if ch != nil {
		<-ch // hung until the fault heals; the deadline fences us off
	}
	return 0.2 + float64(end%100)/1000, nil
}

func (e *estimator) timesCaught() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.caught
}

func main() {
	const (
		window   = 200 // estimator refresh period
		deadline = 50  // per-compute deadline
		backoff  = 100 // first recovery probe delay
	)
	sys := pipes.NewSystem(
		pipes.WithStatWindow(100),
		pipes.WithUpdaterPool(2, 64),
		pipes.WithComputeDeadline(deadline),
		pipes.WithBreaker(pipes.BreakerPolicy{
			FailureThreshold: 2,
			FailureWindow:    100_000,
			ProbeBackoff:     backoff,
			MaxProbeBackoff:  8 * backoff,
		}),
	)
	schema := pipes.Schema{Name: "events", Fields: []pipes.Field{{Name: "v", Type: "int"}}}
	src := sys.Source("src", schema, pipes.NewConstantRate(0, 5, 0), 0.2)
	hot := src.Filter("hot", func(t pipes.Tuple) bool { return t[0].(int)%4 == 0 })
	hot.Sink("out", nil)

	est := &estimator{}
	hot.Metadata().MustDefine(&pipes.Definition{
		Kind: "selEstimate",
		Build: func(*pipes.BuildContext) (pipes.Handler, error) {
			return pipes.NewPeriodic(window, est.estimate), nil
		},
	})
	sub, err := hot.Subscribe("selEstimate")
	check(err)
	defer sub.Unsubscribe()
	env := sys.Env()
	health := func() pipes.HealthSnapshot {
		h, _ := hot.Metadata().Health("selEstimate")
		return h
	}

	// Phase 1 — healthy operation.
	sys.Run(window)
	env.Quiesce()
	v, _ := sub.Float()
	fmt.Printf("t=%4d healthy: selectivity estimate %.3f (state %s)\n", sys.Now(), v, health().State)

	// Phase 2 — the estimator starts hanging. Each boundary compute
	// blocks, exceeds the deadline, and counts a breaker failure.
	est.engage()
	fmt.Printf("t=%4d fault injected: estimator hangs from the next refresh on\n", sys.Now())

	sys.Run(2 * window) // boundary: the compute hangs on a pool worker
	waitUntil("first hung estimate", func() bool { return est.timesCaught() == 1 })
	sys.Run(2*window + deadline) // deadline fires: timeout #1
	env.Quiesce()
	if _, err := sub.Float(); errors.Is(err, pipes.ErrComputeTimeout) {
		fmt.Printf("t=%4d deadline exceeded: %d failure(s), state %s\n",
			sys.Now(), health().RecentFailures, health().State)
	}

	sys.Run(3 * window) // next boundary hangs too
	waitUntil("second hung estimate", func() bool { return est.timesCaught() == 2 })
	sys.Run(3*window + deadline) // timeout #2 trips the breaker
	env.Quiesce()

	// Phase 3 — quarantined: reads serve the last-good estimate,
	// tagged stale.
	v, err = sub.Float()
	if !errors.Is(err, pipes.ErrStale) {
		fmt.Fprintf(os.Stderr, "expected stale read, got %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("t=%4d quarantined: serving stale estimate %.3f (%v)\n", sys.Now(), v, err)
	sys.Run(3*window + 80)
	fmt.Printf("t=%4d still quarantined, stale for %d units\n", sys.Now(), health().StaleFor)

	// Phase 4 — the fault heals. The abandoned computations finish but
	// their late results are fenced: counted, never published.
	est.heal()
	stats := env.Stats()
	waitUntil("late results fenced", func() bool { return stats.LateResults.Load() == 2 })
	v, _ = sub.Float()
	fmt.Printf("t=%4d fault healed: %d late results fenced, estimate still %.3f\n",
		sys.Now(), stats.LateResults.Load(), v)

	// Phase 5 — the backoff probe finds the estimator healthy, closes
	// the breaker, and the refresh cadence resumes.
	sys.Run(3*window + backoff)
	env.Quiesce()
	v, err = sub.Float()
	check(err)
	fmt.Printf("t=%4d recovered: breaker closed, fresh estimate %.3f (state %s)\n",
		sys.Now(), v, health().State)

	sys.Run(5 * window)
	env.Quiesce()
	fmt.Println()
	check(pipes.WriteStats(os.Stdout, stats.Snapshot()))
}

// waitUntil polls for pool-worker progress that happens on OS
// scheduling, not on the virtual clock.
func waitUntil(what string, cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "timed out waiting for "+what)
			os.Exit(1)
		}
		time.Sleep(time.Millisecond)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
