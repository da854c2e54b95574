package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// Degraded-mode tests: compute deadlines, circuit-breaker quarantine,
// and updater backpressure. All of them run on the virtual clock with a
// pool updater and are deterministic: the hung compute signals entry
// through a channel, and the deadline event is armed before the compute
// goroutine spawns, so a test that advances past the deadline always
// observes the timeout.

// waitStat polls an atomic counter until it reaches want. Used only for
// late-straggler accounting, where the counting goroutine is by design
// not synchronized with publication.
func waitStat(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter = %d, want %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuarantineBreakerLifecycle drives the full breaker state machine
// deterministically: a healthy periodic handler hangs, times out twice,
// trips into quarantine (unscheduled, serving its stale-tagged
// last-good value), is re-probed on backoff through the bucketed
// scheduler, and recovers — with a triggered dependent observing the
// quarantine and the recovery through propagation, and the abandoned
// computes fenced off as late results.
func TestQuarantineBreakerLifecycle(t *testing.T) {
	vc := clock.NewVirtual()
	u := NewPoolUpdater(2)
	defer u.Stop()
	env := NewEnv(vc,
		WithUpdater(u),
		WithComputeDeadline(5),
		WithBreaker(BreakerPolicy{
			FailureThreshold: 2,
			FailureWindow:    100,
			ProbeBackoff:     7,
			MaxProbeBackoff:  28,
		}))
	r := env.NewRegistry("op")

	var hanging atomic.Bool
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	r.MustDefine(&Definition{
		Kind: "rate",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
				if hanging.Load() {
					entered <- struct{}{}
					<-release
				}
				return float64(end - start), nil
			}), nil
		},
	})
	r.MustDefine(&Definition{
		Kind: "cost",
		Deps: []DepRef{Dep(Self(), "rate")},
		Build: func(ctx *BuildContext) (Handler, error) {
			dep := ctx.Dep(0)
			return NewTriggered(func(clock.Time) (Value, error) {
				v, err := dep.Value()
				if err != nil {
					return v, err
				}
				return v.(float64) * 2, nil
			}), nil
		},
	})

	sub, err := r.Subscribe("cost")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Unsubscribe()

	if hs, ok := r.Health("rate"); !ok || hs.State != Healthy {
		t.Fatalf("initial health = %+v ok=%v, want healthy", hs, ok)
	}

	// Failure 1: the boundary-10 compute hangs and times out at 15.
	hanging.Store(true)
	vc.Advance(10)
	<-entered // deadline event armed before the compute entered
	vc.Advance(5)
	env.Quiesce()
	if _, err := r.Peek("rate"); !errors.Is(err, ErrComputeTimeout) {
		t.Fatalf("after first timeout Peek error = %v, want ErrComputeTimeout", err)
	} else if errors.Is(err, ErrStale) {
		t.Fatalf("first timeout already stale-tagged: %v", err)
	}
	if hs, _ := r.Health("rate"); hs.State != Degraded || hs.RecentFailures != 1 {
		t.Fatalf("after first timeout health = %+v, want degraded with 1 failure", hs)
	}

	// Failure 2 at boundary 20 trips the breaker.
	vc.Advance(5)
	<-entered
	vc.Advance(5)
	env.Quiesce()
	v, err := r.Peek("rate")
	if !errors.Is(err, ErrStale) || !errors.Is(err, ErrComputeTimeout) {
		t.Fatalf("quarantined Peek error = %v, want ErrStale wrapping ErrComputeTimeout", err)
	}
	if v != 0.0 {
		// Last good value: the initial zero-width window publication.
		t.Fatalf("quarantined Peek value = %v, want last-good 0", v)
	}
	var stale *StaleError
	if !errors.As(err, &stale) {
		t.Fatalf("quarantined error %v is not a *StaleError", err)
	}
	if stale.Since != 20 {
		t.Fatalf("StaleError.Since = %d, want trip instant 20", stale.Since)
	}
	ageAtTrip := stale.Age()
	if hs, _ := r.Health("rate"); hs.State != Quarantined {
		t.Fatalf("health after trip = %+v, want quarantined", hs)
	}
	// The dependent observed the quarantine through propagation.
	if _, err := sub.Value(); !errors.Is(err, ErrStale) {
		t.Fatalf("dependent error after trip = %v, want ErrStale propagated", err)
	}

	// The stale age is live: it grows as the clock advances.
	vc.Advance(1) // t = 26
	if a := stale.Age(); a != ageAtTrip+1 {
		t.Fatalf("stale age after advance = %d, want %d", a, ageAtTrip+1)
	}

	// Probe 1: armed at trip+backoff = 27 through the bucketed
	// scheduler. Still hanging, so it enters the compute and times out
	// at its own deadline (27+5 = 32), re-arming on doubled backoff.
	vc.Advance(1) // t = 27: probe fires, probe compute dispatched
	<-entered     // probe deadline armed before the compute entered
	vc.Advance(5) // t = 32: probe deadline fires
	env.Quiesce()
	if hs, _ := r.Health("rate"); hs.State != Quarantined {
		t.Fatalf("health after failed probe = %+v, want quarantined again", hs)
	}
	if got := env.Stats().BreakerRecoveries.Load(); got != 0 {
		t.Fatalf("BreakerRecoveries = %d before any successful probe", got)
	}

	// Quarantine unscheduled the boundary cadence: between the failed
	// probe and the next one (27+14 = 41), the t=40 boundary that the
	// healthy schedule would have hit runs nothing.
	before := env.Stats().ComputeCalls.Load()
	vc.Advance(8) // t = 40
	env.Quiesce()
	if got := env.Stats().ComputeCalls.Load(); got != before {
		t.Fatalf("quarantined handler still computing: %d calls during quarantine", got-before)
	}

	// Heal the compute; probe 2 at t = 41 succeeds.
	hanging.Store(false)
	vc.Advance(1) // t = 41
	env.Quiesce()
	if hs, _ := r.Health("rate"); hs.State != Healthy {
		t.Fatalf("health after successful probe = %+v, want healthy", hs)
	}
	v, err = r.Peek("rate")
	if err != nil {
		t.Fatalf("recovered Peek = %v, %v", v, err)
	}
	recovered := v.(float64)
	if recovered <= 0 {
		t.Fatalf("recovered value = %v, want positive cumulative window", v)
	}
	// Recovery propagated to the dependent.
	if dv, err := sub.Value(); err != nil || dv.(float64) != recovered*2 {
		t.Fatalf("dependent after recovery = %v, %v; want %v", dv, err, recovered*2)
	}

	// The boundary cadence resumed on a fresh task.
	beforeUpdates := env.Stats().PeriodicUpdates.Load()
	vc.Advance(20)
	env.Quiesce()
	if got := env.Stats().PeriodicUpdates.Load(); got <= beforeUpdates {
		t.Fatalf("no periodic updates after recovery (%d -> %d)", beforeUpdates, got)
	}

	// Release the abandoned computes: their late results are fenced off
	// and counted, never published.
	cur, _ := r.Peek("rate")
	release <- struct{}{}
	release <- struct{}{}
	release <- struct{}{}
	waitStat(t, &env.Stats().LateResults, 3)
	if after, _ := r.Peek("rate"); after != cur {
		t.Fatalf("late result clobbered publication: %v -> %v", cur, after)
	}

	st := env.Stats()
	if st.Timeouts.Load() != 3 {
		t.Errorf("Timeouts = %d, want 3 (two ticks + one probe)", st.Timeouts.Load())
	}
	if st.BreakerTrips.Load() != 1 {
		t.Errorf("BreakerTrips = %d, want 1", st.BreakerTrips.Load())
	}
	if st.BreakerRecoveries.Load() != 1 {
		t.Errorf("BreakerRecoveries = %d, want 1", st.BreakerRecoveries.Load())
	}
}

// TestDeadlineGenerationFence: a timed-out compute that eventually
// finishes must never overwrite the newer publication that happened
// while it was hung.
func TestDeadlineGenerationFence(t *testing.T) {
	vc := clock.NewVirtual()
	u := NewPoolUpdater(2)
	defer u.Stop()
	env := NewEnv(vc, WithUpdater(u), WithComputeDeadline(5))
	r := env.NewRegistry("op")

	var hangFirst atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	r.MustDefine(&Definition{
		Kind: "sel",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
				if hangFirst.CompareAndSwap(true, false) {
					entered <- struct{}{}
					<-release
					return -1.0, nil // stale result from the stuck window
				}
				return float64(end), nil
			}), nil
		},
	})
	sub, err := r.Subscribe("sel")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Unsubscribe()

	hangFirst.Store(true)
	vc.Advance(10)
	<-entered
	vc.Advance(5) // deadline at 15: timeout published
	env.Quiesce()
	if _, err := sub.Value(); !errors.Is(err, ErrComputeTimeout) {
		t.Fatalf("value after deadline = %v, want ErrComputeTimeout", err)
	}
	if got := env.Stats().Timeouts.Load(); got != 1 {
		t.Fatalf("Timeouts = %d, want 1", got)
	}

	// The next boundary publishes a fresh healthy value.
	vc.Advance(5)
	env.Quiesce()
	v, err := sub.Value()
	if err != nil || v.(float64) != 20 {
		t.Fatalf("post-recovery value = %v, %v; want 20", v, err)
	}

	// Now the hung compute returns; the generation fence must discard
	// its result (-1) instead of clobbering the newer publication.
	close(release)
	waitStat(t, &env.Stats().LateResults, 1)
	if v, err := sub.Value(); err != nil || v.(float64) != 20 {
		t.Fatalf("late result clobbered newer publication: %v, %v", v, err)
	}
}

// TestDeadlineInlineEnvInert: deadlines require an asynchronous
// updater; on an inline env the option is accepted but computations run
// unbounded (a deadline wait on the clock goroutine could never fire).
func TestDeadlineInlineEnvInert(t *testing.T) {
	env := NewEnv(clock.NewVirtual(), WithComputeDeadline(5))
	r := env.NewRegistry("op")
	r.MustDefine(&Definition{
		Kind: "x",
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(now clock.Time) (Value, error) { return 1.0, nil }), nil
		},
	})
	sub, err := r.Subscribe("x")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Unsubscribe()
	if v, err := sub.Value(); err != nil || v.(float64) != 1.0 {
		t.Fatalf("Value = %v, %v", v, err)
	}
	if got := env.deadlineFor(nil); got != 0 {
		t.Fatalf("inline env deadlineFor = %d, want 0", got)
	}
}

// TestPublishContract drives the breaker lifecycle of
// TestQuarantineBreakerLifecycle with panics instead of hangs — inline
// env, no deadlines — once per mechanism, with and without a breaker,
// and holds every row to the same contract, because every mechanism
// publishes through the same code: one version bump per publication,
// seen once by the watch sink; a compute error is published as a
// value; a panic as ErrComputePanic; a trip serves the last-good value
// under a *StaleError and stops computing; a successful probe
// republishes and propagates exactly once; a recovery's restore at
// inclusion raises, then bumps, the version, and only on a breaker env;
// and a stopped item reports ErrUnsubscribed.
func TestPublishContract(t *testing.T) {
	const (
		modeOK int32 = iota
		modeErr
		modePanic
	)
	errBoom := errors.New("boom")
	rows := []struct {
		name string
		opts []EnvOption
		// build wraps the row's compute in the mechanism under test; nil
		// selects a delta aggregate, whose compute is its fold.
		build   func(c ComputeFunc) Handler
		advance clock.Duration // poke: let a window boundary pass
		// quietOK: a healthy compute publishes nothing (volatile
		// on-demand: the read is the delivery). quietPanic: nor does a
		// panic below the trip threshold (on-demand: delivered to the
		// reader, never memoized). readPublishes: the first read after
		// an invalidation publishes a memo, a version bump of its own.
		quietOK, quietPanic, readPublishes bool
	}{
		{name: "on-demand", build: func(c ComputeFunc) Handler { return NewOnDemand(c) }, quietOK: true, quietPanic: true},
		{name: "on-demand-memoized", opts: []EnvOption{WithMemoizedOnDemand()},
			build: func(c ComputeFunc) Handler { return NewOnDemand(c) }, quietPanic: true, readPublishes: true},
		{name: "periodic", advance: 10, build: func(c ComputeFunc) Handler {
			return NewPeriodic(10, func(_, end clock.Time) (Value, error) { return c(end) })
		}},
		{name: "triggered", build: func(c ComputeFunc) Handler { return NewTriggered(c) }},
		{name: "delta-aggregate"},
	}
	for _, row := range rows {
		for _, breaker := range []bool{false, true} {
			name := row.name + "/no-breaker"
			if breaker {
				name = row.name + "/breaker"
			}
			t.Run(name, func(t *testing.T) {
				vc := clock.NewVirtual()
				opts := row.opts
				if breaker {
					// The backoff dwarfs every advance a poke makes, so a
					// probe fires only when the test asks for it.
					opts = append(opts[:len(opts):len(opts)], WithBreaker(BreakerPolicy{
						FailureThreshold: 2, FailureWindow: 1 << 20,
						ProbeBackoff: 1000, MaxProbeBackoff: 4000,
					}))
				}
				env := NewEnv(vc, opts...)
				r := env.NewRegistry("op")

				// src is the cell x reads: errors are injected there, so
				// x's compute returns an ordinary error; panics are
				// injected in x's own compute.
				var mode atomic.Int32
				var xCalls, depCalls atomic.Int64
				src := 1.0
				r.MustDefine(&Definition{
					Kind:   "src",
					Events: []string{"ev"},
					Build: func(*BuildContext) (Handler, error) {
						return NewTriggered(func(clock.Time) (Value, error) {
							if mode.Load() == modeErr {
								return nil, errBoom
							}
							return src, nil
						}), nil
					},
				})
				fault := func() {
					xCalls.Add(1)
					if mode.Load() == modePanic {
						panic("estimator corrupted")
					}
				}
				var built Handler
				x := &Definition{Kind: "x", Deps: []DepRef{Dep(Self(), "src")}, Pure: true}
				if row.build != nil {
					x.Build = func(ctx *BuildContext) (Handler, error) {
						in := ctx.Dep(0)
						built = row.build(func(clock.Time) (Value, error) {
							fault()
							v, err := in.Float()
							if err != nil {
								return nil, err
							}
							return v, nil
						})
						return built, nil
					}
				} else {
					x.Delta = &DeltaSpec{
						Combine: func(a DeltaAcc, v float64) DeltaAcc { fault(); a[0] += v; return a },
						Retract: func(a DeltaAcc, v float64) (DeltaAcc, bool) { a[0] -= v; return a, true },
					}
					x.Build = func(ctx *BuildContext) (h Handler, err error) {
						built, err = NewDeltaAggregate(ctx)
						return built, err
					}
				}
				r.MustDefine(x)
				r.MustDefine(&Definition{
					Kind: "dep",
					Deps: []DepRef{Dep(Self(), "x")},
					Build: func(ctx *BuildContext) (Handler, error) {
						in := ctx.Dep(0)
						return NewTriggered(func(clock.Time) (Value, error) {
							depCalls.Add(1)
							return in.Value()
						}), nil
					},
				})
				depSub, err := r.Subscribe("dep")
				if err != nil {
					t.Fatal(err)
				}
				xSub, err := r.Subscribe("x")
				if err != nil {
					t.Fatal(err)
				}
				sink := new(recordingSink)
				version, err := r.Watch("x", sink)
				if err != nil {
					t.Fatal(err)
				}

				// poke provokes exactly one compute of x — src republishes,
				// then the row's own trigger: the propagation from src, a
				// window boundary, or the read itself — and reads x.
				poke := func() (Value, error) {
					src++
					r.FireEvent("ev")
					vc.Advance(row.advance)
					return xSub.Value()
				}
				// bumped checks that x's version moved by exactly n since
				// the last check and that the sink saw each step once.
				bumped := func(what string, n uint64) {
					t.Helper()
					got, _ := r.ItemVersion("x")
					seen := sink.take()
					if got != version+n || uint64(len(seen)) != n {
						t.Fatalf("%s: version %d -> %d, sink saw %v; want %d bump(s), each seen once", what, version, got, seen, n)
					}
					for i, v := range seen {
						if v != version+uint64(i)+1 {
							t.Fatalf("%s: sink saw %v after version %d", what, seen, version)
						}
					}
					version = got
				}
				quiet := func(q bool) uint64 {
					if q {
						return 0
					}
					return 1
				}
				state := func() HealthState {
					hs, ok := r.Health("x")
					if !ok {
						t.Fatal("x has no health")
					}
					return hs.State
				}
				// reinclude drops x and dep and includes them again as a
				// recovery does, under a lookup that holds 99 at persisted
				// version target for x; the sink watches the new x.
				reinclude := func(target uint64) {
					t.Helper()
					xSub.Unsubscribe()
					depSub.Unsubscribe()
					env.SetRestoreLookup(func(_ *Registry, kind Kind) *RestoredItem {
						if kind != "x" {
							return nil
						}
						return &RestoredItem{Value: 99.0, Version: target}
					})
					defer env.SetRestoreLookup(nil)
					if depSub, err = r.Subscribe("dep"); err != nil {
						t.Fatal(err)
					}
					if xSub, err = r.Subscribe("x"); err != nil {
						t.Fatal(err)
					}
					if version, err = r.Watch("x", sink); err != nil {
						t.Fatal(err)
					}
				}

				// A healthy publication.
				if v, err := poke(); err != nil || v != src {
					t.Fatalf("healthy: %v, %v; want %v", v, err, src)
				}
				bumped("healthy", quiet(row.quietOK))

				// A compute error is a value like any other: published,
				// and of no interest to the breaker.
				mode.Store(modeErr)
				if _, err := poke(); !errors.Is(err, errBoom) || errors.Is(err, ErrStale) {
					t.Fatalf("compute error: read error %v, want the compute's own", err)
				}
				bumped("compute error", quiet(row.quietOK))
				if state() != Healthy {
					t.Fatalf("compute error: health %v, want Healthy", state())
				}
				mode.Store(modeOK)
				if v, err := poke(); err != nil || v != src {
					t.Fatalf("after compute error: %v, %v; want %v", v, err, src)
				}
				bumped("after compute error", quiet(row.quietOK))
				lastGood := src

				// A panic is contained and published as ErrComputePanic.
				mode.Store(modePanic)
				if _, err := poke(); !errors.Is(err, ErrComputePanic) || errors.Is(err, ErrStale) {
					t.Fatalf("panic: read error %v, want ErrComputePanic", err)
				}
				bumped("panic", quiet(row.quietPanic))

				if !breaker {
					// Without a breaker nothing ever trips, and there is no
					// quarantine to restore into.
					if _, err := poke(); !errors.Is(err, ErrComputePanic) || errors.Is(err, ErrStale) {
						t.Fatalf("second panic: read error %v, want ErrComputePanic", err)
					}
					bumped("second panic", quiet(row.quietPanic))
					if state() != Healthy {
						t.Fatalf("health %v without a breaker", state())
					}
					// Nor is the lookup consulted: x computes as it starts.
					mode.Store(modeOK)
					reinclude(version + 100)
					if v, err := xSub.Value(); err != nil || v != src || version > 1 {
						t.Fatalf("included under a lookup without a breaker: %v, %v at version %d; want %v computed", v, err, version, src)
					}
				} else {
					if state() != Degraded {
						t.Fatalf("after one panic: health %v, want Degraded", state())
					}
					// The second panic trips the breaker: the last-good value
					// is republished — once, for every mechanism — under a
					// *StaleError that wraps the cause.
					v, err := poke()
					var stale *StaleError
					if !errors.Is(err, ErrStale) || !errors.Is(err, ErrComputePanic) || !errors.As(err, &stale) {
						t.Fatalf("trip: read error %v, want a *StaleError wrapping ErrComputePanic", err)
					}
					if v != lastGood {
						t.Fatalf("trip: stale value %v, want last-good %v", v, lastGood)
					}
					bumped("trip", 1)
					if state() != Quarantined {
						t.Fatalf("after two panics: health %v, want Quarantined", state())
					}
					if _, err := depSub.Value(); !row.quietPanic && !errors.Is(err, ErrStale) {
						// A publishing x propagated its trip to dep.
						t.Fatalf("trip: dependent read error %v, want ErrStale propagated", err)
					}
					// Quarantined, x neither computes nor publishes.
					calls := xCalls.Load()
					if v, err := poke(); !errors.Is(err, ErrStale) || v != lastGood {
						t.Fatalf("quarantined: %v, %v; want last-good %v under ErrStale", v, err, lastGood)
					}
					bumped("quarantined", 0)
					if got := xCalls.Load(); got != calls {
						t.Fatalf("quarantined x still computed (%d calls)", got-calls)
					}

					// Heal; the probe closes the breaker, republishes once
					// and propagates once (and the dependent's read of a
					// memoized x publishes the fresh memo).
					mode.Store(modeOK)
					refreshes := depCalls.Load()
					vc.AdvanceTo(stale.Since.Add(1000))
					if state() != Healthy {
						t.Fatalf("after probe: health %v, want Healthy", state())
					}
					bumped("probe", 1+quiet(!row.readPublishes))
					if got := depCalls.Load() - refreshes; got != 1 {
						t.Fatalf("probe: dependent refreshed %d times, want 1", got)
					}
					if v, err := xSub.Value(); err != nil || v != src {
						t.Fatalf("recovered: %v, %v; want %v", v, err, src)
					}
					if v, err := depSub.Value(); err != nil || v != src {
						t.Fatalf("recovered dependent: %v, %v; want %v", v, err, src)
					}
					if got := env.Stats().BreakerRecoveries.Load(); got != 1 {
						t.Fatalf("BreakerRecoveries = %d, want 1", got)
					}

					// A recovery restores x as it includes it: the version is
					// raised to the persisted one, then bumped once for the
					// stale publication, x's first.
					target := version + 100
					reinclude(target)
					if version != target+1 {
						t.Fatalf("restored: version %d, want %d", version, target+1)
					}
					if v, err := xSub.Value(); !errors.Is(err, ErrStale) || !errors.Is(err, ErrRestored) || v != 99.0 {
						t.Fatalf("restored: %v, %v; want 99 under ErrStale wrapping ErrRestored", v, err)
					}
					vc.Advance(1000)
					if v, err := xSub.Value(); err != nil || v != src || state() != Healthy {
						t.Fatalf("after restore probe: %v, %v, %v; want %v, healthy", v, err, state(), src)
					}
				}

				if errs := VerifyIntegrity(map[ItemKey]int{{Registry: "op", Kind: "x"}: 1, {Registry: "op", Kind: "dep"}: 1}, r); len(errs) > 0 {
					t.Fatalf("integrity: %v", errs)
				}
				// A stopped item serves nothing, through its handle or directly.
				h := xSub.Handle()
				sink.take()
				xSub.Unsubscribe()
				depSub.Unsubscribe()
				if _, err := h.Value(); !errors.Is(err, ErrUnsubscribed) {
					t.Fatalf("handle read after stop: %v, want ErrUnsubscribed", err)
				}
				if _, err := built.Value(); !errors.Is(err, ErrUnsubscribed) {
					t.Fatalf("handler read after stop: %v, want ErrUnsubscribed", err)
				}
				vc.Advance(2000)
				if seen := sink.take(); len(seen) != 0 {
					t.Fatalf("stopped item still published: %v", seen)
				}
			})
		}
	}
}

// TestPublicationRecord pins the two forms of a publication: a clean
// value inline in its snapshot, and a (value, error) pair out of line
// in a record — a *StaleError for a stale publication, which carries
// its last-good value itself. Every row reads its item through the
// lock-free handle read and the item's own Value.
func TestPublicationRecord(t *testing.T) {
	errX := errors.New("x failed")
	// cleanStale is a value whose dynamic type is a record type: it must
	// read back as a value, never as the publication's error.
	cleanStale := &StaleError{Cause: errX, env: NewEnv(clock.NewVirtual())}
	breaker := WithBreaker(BreakerPolicy{
		FailureThreshold: 1, FailureWindow: 1 << 20,
		ProbeBackoff: 1000, MaxProbeBackoff: 4000,
	})
	// publishing includes x, a triggered item whose compute returns
	// (v, err), on a plain env.
	publishing := func(v Value, err error) func(*testing.T, *clock.Virtual) *Registry {
		return func(t *testing.T, vc *clock.Virtual) *Registry {
			r := NewEnv(vc).NewRegistry("op")
			r.MustDefine(&Definition{Kind: "x", Build: func(*BuildContext) (Handler, error) {
				return NewTriggered(func(clock.Time) (Value, error) { return v, err }), nil
			}})
			return r
		}
	}
	// tripping includes x on a breaker env: its first compute returns 4,
	// the next one panics and trips the breaker. The probe's backoff
	// outlasts the test.
	tripping := func(build func(ComputeFunc) Handler) func(*testing.T, *clock.Virtual) *Registry {
		return func(t *testing.T, vc *clock.Virtual) *Registry {
			r := NewEnv(vc, breaker).NewRegistry("op")
			calls := 0
			r.MustDefine(&Definition{Kind: "x", Events: []string{"ev"}, Build: func(*BuildContext) (Handler, error) {
				return build(func(clock.Time) (Value, error) {
					if calls++; calls > 1 {
						panic("estimator corrupted")
					}
					return 4.0, nil
				}), nil
			}})
			return r
		}
	}
	rows := []struct {
		name  string
		setup func(*testing.T, *clock.Virtual) *Registry
		// poke runs after the subscription, before the reads.
		poke func(*Registry)
		val  Value
		// err is what the read's error must match (errors.Is), nil for
		// none; stale says it is a *StaleError whose cause it is.
		err   error
		stale bool
		// clockless says the *StaleError was built outside core: it has
		// no clock, so its Age is 0 and stays 0.
		clockless bool
	}{
		{name: "value", setup: publishing(3.0, nil), val: 3.0},
		{name: "error", setup: publishing(nil, errX), err: errX},
		{name: "value and error", setup: publishing(3.0, errX), val: 3.0, err: errX},
		{name: "clean *StaleError value", setup: publishing(cleanStale, nil), val: cleanStale},
		{name: "*StaleError built outside core", setup: publishing(nil, &StaleError{Cause: errX}),
			err: errX, stale: true, clockless: true},
		{name: "tripped triggered", setup: tripping(func(c ComputeFunc) Handler { return NewTriggered(c) }),
			poke: func(r *Registry) { r.FireEvent("ev") }, val: 4.0, err: ErrComputePanic, stale: true},
		{name: "tripped on-demand", setup: tripping(func(c ComputeFunc) Handler { return NewOnDemand(c) }),
			poke: func(r *Registry) { r.Peek("x"); r.Peek("x") }, val: 4.0, err: ErrComputePanic, stale: true},
		{name: "restored", setup: func(t *testing.T, vc *clock.Virtual) *Registry {
			env := NewEnv(vc, breaker)
			r := env.NewRegistry("op")
			r.MustDefine(&Definition{Kind: "x", Build: func(*BuildContext) (Handler, error) {
				return NewTriggered(func(clock.Time) (Value, error) { return 1.0, nil }), nil
			}})
			env.SetRestoreLookup(func(_ *Registry, kind Kind) *RestoredItem {
				return &RestoredItem{Value: 7.0, Version: 3}
			})
			t.Cleanup(func() { env.SetRestoreLookup(nil) })
			return r
		}, val: 7.0, err: ErrRestored, stale: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			vc := clock.NewVirtual()
			r := row.setup(t, vc)
			s, err := r.Subscribe("x")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Unsubscribe()
			if row.poke != nil {
				row.poke(r)
			}
			reads := []struct {
				how string
				get func() (Value, error)
			}{{"Handle.Value", s.Value}, {"item.Value", r.entryOf("x").Value}}
			for _, rd := range reads {
				v, err := rd.get()
				if v != row.val || (row.err == nil) != (err == nil) || !errors.Is(err, row.err) {
					t.Fatalf("%s = %v, %v; want %v, %v", rd.how, v, err, row.val, row.err)
				}
				var se *StaleError
				if errors.As(err, &se) != row.stale || errors.Is(err, ErrStale) != row.stale {
					t.Fatalf("%s: error %v is stale: %v, want %v", rd.how, err, !row.stale, row.stale)
				}
				if !row.stale {
					continue
				}
				if u := se.Unwrap(); len(u) != 2 || u[0] != ErrStale || !errors.Is(u[1], row.err) || u[1] != se.Cause {
					t.Fatalf("%s: Unwrap = %v, want [ErrStale, the cause %v]", rd.how, u, row.err)
				}
				if msg := se.Error(); !strings.Contains(msg, ErrStale.Error()) || !strings.Contains(msg, row.err.Error()) {
					t.Fatalf("%s: Error() = %q, want it to name ErrStale and the cause", rd.how, msg)
				}
				age := se.Age()
				vc.Advance(5)
				want := age + 5
				if row.clockless {
					want = 0
				}
				if got := se.Age(); got != want || row.clockless && age != 0 {
					t.Fatalf("%s: Age %d, then %d after advancing 5", rd.how, age, got)
				}
			}
		})
	}
}

// TestBackpressureShedsSupersededBatches: with a bounded queue, a
// periodic scope batch still queued when the same scope's next boundary
// arrives is superseded by it — dropped and counted, never run twice —
// while must-run submissions are never dropped even over capacity.
func TestBackpressureShedsSupersededBatches(t *testing.T) {
	vc := clock.NewVirtual()
	u := NewPoolUpdater(1, WithQueueCapacity(4))
	defer u.Stop()
	env := NewEnv(vc, WithUpdater(u))
	r := env.NewRegistry("op")
	var computes atomic.Int64
	r.MustDefine(&Definition{
		Kind: "rate",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
				computes.Add(1)
				return float64(end - start), nil
			}), nil
		},
	})
	sub, err := r.Subscribe("rate")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Unsubscribe()

	// Wedge the single worker so boundary batches pile up in the queue.
	started := make(chan struct{})
	blocker := make(chan struct{})
	u.Submit(func() { close(started); <-blocker })
	<-started

	// Three boundaries while the worker is stuck: the first batch
	// queues, the next two supersede it in place.
	vc.Advance(10)
	vc.Advance(10)
	vc.Advance(10)
	if got := env.Stats().ShedTicks.Load(); got != 2 {
		t.Fatalf("ShedTicks = %d, want 2 superseded batches", got)
	}

	close(blocker)
	env.Quiesce()
	// Exactly one batch ran (the latest boundary), computing the full
	// cumulative window [0, 30]: shedding cost latency, not data.
	if got := computes.Load(); got != 2 { // initial zero-width + one batch
		t.Fatalf("computes = %d, want 2 (initial + one coalesced batch)", got)
	}
	if v, err := sub.Value(); err != nil || v.(float64) != 30 {
		t.Fatalf("value = %v, %v; want full window 30", v, err)
	}
	if hw := env.Stats().QueueHighWater.Load(); hw < 1 {
		t.Fatalf("QueueHighWater = %d, want >= 1", hw)
	}
}

// TestBackpressureMustRunNeverDropped: must-run submissions (the class
// carrying triggered propagations) always enqueue, even when the queue
// is far over its sheddable capacity.
func TestBackpressureMustRunNeverDropped(t *testing.T) {
	u := NewPoolUpdater(1, WithQueueCapacity(2)).(*poolUpdater)
	defer u.Stop()

	started := make(chan struct{})
	blocker := make(chan struct{})
	u.Submit(func() { close(started); <-blocker })
	<-started

	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		u.Submit(func() { ran.Add(1) })
	}
	// With the queue already over capacity, sheddable submissions with
	// distinct keys (no coalescing target) are shed outright.
	var shedRan atomic.Int64
	for i := 0; i < 5; i++ {
		u.SubmitSheddable(i, func() { shedRan.Add(1) })
	}
	close(blocker)
	u.WaitIdle()
	if got := ran.Load(); got != 10 {
		t.Fatalf("must-run tasks executed = %d, want all 10", got)
	}
	if got := shedRan.Load(); got != 0 {
		t.Fatalf("sheddable tasks ran over capacity = %d, want all shed", got)
	}
}

// TestBackpressureCoalesceKeepsNewest: superseding replaces the queued
// function, so the batch that runs is the newest one for the key.
func TestBackpressureCoalesceKeepsNewest(t *testing.T) {
	u := NewPoolUpdater(1, WithQueueCapacity(4)).(*poolUpdater)
	defer u.Stop()

	started := make(chan struct{})
	blocker := make(chan struct{})
	u.Submit(func() { close(started); <-blocker })
	<-started

	var got atomic.Int64
	key := "scope"
	u.SubmitSheddable(key, func() { got.Store(1) })
	u.SubmitSheddable(key, func() { got.Store(2) })
	u.SubmitSheddable(key, func() { got.Store(3) })
	close(blocker)
	u.WaitIdle()
	if got.Load() != 3 {
		t.Fatalf("coalesced run = %d, want newest (3)", got.Load())
	}
}

// TestPoolUpdaterSheddableAfterStopIsNoop: like Submit, SubmitSheddable
// after Stop must neither run nor enqueue into the dead queue.
func TestPoolUpdaterSheddableAfterStopIsNoop(t *testing.T) {
	u := NewPoolUpdater(1, WithQueueCapacity(2)).(*poolUpdater)
	u.Stop()
	ran := false
	u.SubmitSheddable("k", func() { ran = true })
	u.WaitIdle()
	if ran {
		t.Fatal("sheddable task ran after Stop")
	}
	if u.queue.Len() != 0 {
		t.Fatalf("task enqueued into stopped updater (len %d)", u.queue.Len())
	}
}
