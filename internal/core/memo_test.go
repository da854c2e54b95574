package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

// Versioned read path tests: dependency-stamped memoization, write-epoch
// and version invalidation, singleflight coalescing, and the interplay
// with the circuit breaker. All run on the virtual clock with the
// inline updater and are deterministic.

// memoEnv returns a virtual-clock environment with the versioned read
// path enabled.
func memoEnv() (*Env, *clock.Virtual) {
	vc := clock.NewVirtual()
	return NewEnv(vc, WithMemoizedOnDemand()), vc
}

// definePureSum defines kind as a Pure on-demand sum of its
// dependencies plus base, counting computes into calls.
func definePureSum(r *Registry, kind Kind, base float64, calls *atomic.Int64, deps ...DepRef) {
	r.MustDefine(&Definition{
		Kind: kind,
		Deps: deps,
		Pure: true,
		Build: func(ctx *BuildContext) (Handler, error) {
			handles := make([]*Handle, 0)
			for i := 0; i < ctx.NumDeps(); i++ {
				handles = append(handles, ctx.DepGroup(i)...)
			}
			return NewOnDemand(func(clock.Time) (Value, error) {
				calls.Add(1)
				sum := base
				for _, h := range handles {
					f, err := h.Float()
					if err != nil {
						return nil, err
					}
					sum += f
				}
				return sum, nil
			}), nil
		},
	})
}

func TestMemoHitServesCachedValue(t *testing.T) {
	env, _ := memoEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "size", 7.0)
	var calls atomic.Int64
	definePureSum(r, "derived", 100, &calls, Dep(Self(), "size"))

	sub, err := r.Subscribe("derived")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	before := env.Stats().Snapshot()
	for i := 0; i < 5; i++ {
		v, err := sub.Value()
		if err != nil || v.(float64) != 107 {
			t.Fatalf("read %d: Value = %v, %v; want 107", i, v, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1 (memo must absorb repeat reads)", got)
	}
	d := env.Stats().Snapshot().Sub(before)
	if d.MemoMisses != 1 || d.MemoHits != 4 {
		t.Fatalf("misses=%d hits=%d, want 1 miss + 4 hits", d.MemoMisses, d.MemoHits)
	}
	if d.OnDemandComputes != 1 {
		t.Fatalf("OnDemandComputes = %d, want 1", d.OnDemandComputes)
	}
}

// TestMemoDisabledIdenticalComputeCounts pins the bit-identical-when-
// disabled contract: without WithMemoizedOnDemand, a Pure definition
// recomputes on every access exactly as before the versioned read path
// existed, and no memo counters move.
func TestMemoDisabledIdenticalComputeCounts(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "size", 7.0)
	var calls atomic.Int64
	definePureSum(r, "derived", 100, &calls, Dep(Self(), "size"))

	sub, err := r.Subscribe("derived")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	for i := 0; i < 5; i++ {
		if v, err := sub.Value(); err != nil || v.(float64) != 107 {
			t.Fatalf("read %d: Value = %v, %v", i, v, err)
		}
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("computes = %d, want 5 (recompute per access)", got)
	}
	st := env.Stats().Snapshot()
	if st.MemoHits != 0 || st.MemoMisses != 0 || st.CoalescedReads != 0 {
		t.Fatalf("memo counters moved on a memo-disabled env: %+v", st)
	}
}

// TestMemoRequiresPure: a non-Pure on-demand item recomputes per access
// even on a memo-enabled env.
func TestMemoRequiresPure(t *testing.T) {
	env, _ := memoEnv()
	r := env.NewRegistry("n1")
	var calls atomic.Int64
	r.MustDefine(&Definition{
		Kind: "volatile",
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(now clock.Time) (Value, error) {
				calls.Add(1)
				return float64(now), nil
			}), nil
		},
	})
	sub, err := r.Subscribe("volatile")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	for i := 0; i < 3; i++ {
		if _, err := sub.Value(); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("computes = %d, want 3", got)
	}
}

// TestMemoBlockedByVolatileDep: a Pure item over a volatile on-demand
// dependency is not stampable and must keep recomputing — a memo over
// an unstamped dependency could serve stale values.
func TestMemoBlockedByVolatileDep(t *testing.T) {
	env, vc := memoEnv()
	r := env.NewRegistry("n1")
	r.MustDefine(&Definition{
		Kind: "clockval",
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(now clock.Time) (Value, error) {
				return float64(now), nil
			}), nil
		},
	})
	var calls atomic.Int64
	definePureSum(r, "derived", 0, &calls, Dep(Self(), "clockval"))

	sub, err := r.Subscribe("derived")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	if v, _ := sub.Value(); v.(float64) != 0 {
		t.Fatalf("Value = %v, want 0", v)
	}
	vc.Advance(5)
	if v, _ := sub.Value(); v.(float64) != 5 {
		t.Fatalf("after advance Value = %v, want 5 (volatile dep must stay live)", v)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("computes = %d, want 2 (memo must not engage over a volatile dep)", got)
	}
}

// TestMemoInvalidatedByDepPublish: a periodic dependency publishing a
// new window bumps its version and must invalidate the dependent memo.
func TestMemoInvalidatedByDepPublish(t *testing.T) {
	env, vc := memoEnv()
	r := env.NewRegistry("n1")
	r.MustDefine(&Definition{
		Kind: "win",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
				return float64(end), nil
			}), nil
		},
	})
	var calls atomic.Int64
	definePureSum(r, "derived", 0, &calls, Dep(Self(), "win"))

	sub, err := r.Subscribe("derived")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	if v, _ := sub.Value(); v.(float64) != 0 {
		t.Fatalf("initial Value = %v, want 0", v)
	}
	sub.Value() // hit
	if got := calls.Load(); got != 1 {
		t.Fatalf("computes = %d before dep publish, want 1", got)
	}
	vc.Advance(10) // window boundary: dep publishes end=10, version bumps
	v, err := sub.Value()
	if err != nil || v.(float64) != 10 {
		t.Fatalf("after dep publish Value = %v, %v; want 10", v, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("computes = %d after dep publish, want 2 (memo must miss)", got)
	}
	sub.Value() // re-memoized: hit again
	if got := calls.Load(); got != 2 {
		t.Fatalf("computes = %d after re-memoization, want 2", got)
	}
}

// TestMemoInvalidatedByNotifyChanged: NotifyChanged is the purity
// escape hatch — it bumps the item's version so memos stamped over it
// revalidate and miss.
func TestMemoInvalidatedByNotifyChanged(t *testing.T) {
	env, _ := memoEnv()
	r := env.NewRegistry("n1")
	cur := 7.0
	var mu sync.Mutex
	r.MustDefine(&Definition{
		Kind: "size",
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) {
				mu.Lock()
				defer mu.Unlock()
				return cur, nil
			}), nil
		},
		Pure: true, // a lie, announced via NotifyChanged below
	})
	var calls atomic.Int64
	definePureSum(r, "derived", 100, &calls, Dep(Self(), "size"))

	sub, err := r.Subscribe("derived")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	if v, _ := sub.Value(); v.(float64) != 107 {
		t.Fatalf("Value = %v, want 107", v)
	}
	mu.Lock()
	cur = 9
	mu.Unlock()
	r.NotifyChanged("size")
	v, err := sub.Value()
	if err != nil || v.(float64) != 109 {
		t.Fatalf("after NotifyChanged Value = %v, %v; want 109", v, err)
	}
}

// TestMemoInvalidatedByStructuralChange: any subscribe/unsubscribe bumps
// the env write epoch, conservatively invalidating every memo.
func TestMemoInvalidatedByStructuralChange(t *testing.T) {
	env, _ := memoEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "size", 7.0)
	defineConst(r, "other", 1.0)
	var calls atomic.Int64
	definePureSum(r, "derived", 100, &calls, Dep(Self(), "size"))

	sub, err := r.Subscribe("derived")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	sub.Value()
	sub.Value()
	if got := calls.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1", got)
	}
	other, err := r.Subscribe("other") // structural change: epoch bump
	if err != nil {
		t.Fatal(err)
	}
	before := env.Stats().Snapshot()
	if v, _ := sub.Value(); v.(float64) != 107 {
		t.Fatalf("Value after structural change = %v, want 107", v)
	}
	if d := env.Stats().Snapshot().Sub(before); d.MemoMisses != 1 {
		t.Fatalf("misses after structural change = %d, want 1 (epoch must invalidate)", d.MemoMisses)
	}
	sub.Value() // re-stamped at the new epoch: hit
	if got := calls.Load(); got != 2 {
		t.Fatalf("computes = %d, want 2 (miss re-memoizes)", got)
	}
	other.Unsubscribe()
}

// TestMemoChainedThroughMemoizedDep: a Pure item over a memoized Pure
// on-demand dependency is stampable; invalidation of the dependency's
// own memo (via the purity escape hatch on a leaf) must cascade to the
// parent even though the middle item's version has not moved yet.
func TestMemoChainedThroughMemoizedDep(t *testing.T) {
	env, _ := memoEnv()
	r := env.NewRegistry("n1")
	cur := 1.0
	var mu sync.Mutex
	r.MustDefine(&Definition{
		Kind: "leaf",
		Pure: true, // announced via NotifyChanged
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) {
				mu.Lock()
				defer mu.Unlock()
				return cur, nil
			}), nil
		},
	})
	var midCalls, topCalls atomic.Int64
	definePureSum(r, "mid", 10, &midCalls, Dep(Self(), "leaf"))
	definePureSum(r, "top", 100, &topCalls, Dep(Self(), "mid"))

	sub, err := r.Subscribe("top")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	if v, _ := sub.Value(); v.(float64) != 111 {
		t.Fatalf("Value = %v, want 111", v)
	}
	sub.Value()
	if topCalls.Load() != 1 || midCalls.Load() != 1 {
		t.Fatalf("computes top=%d mid=%d, want 1 each", topCalls.Load(), midCalls.Load())
	}
	mu.Lock()
	cur = 2
	mu.Unlock()
	r.NotifyChanged("leaf")
	v, err := sub.Value()
	if err != nil || v.(float64) != 112 {
		t.Fatalf("after leaf change Value = %v, %v; want 112", v, err)
	}
	// Converged again: both memos re-stamped.
	sub.Value()
	if topCalls.Load() != 2 || midCalls.Load() != 2 {
		t.Fatalf("computes top=%d mid=%d after change, want 2 each", topCalls.Load(), midCalls.Load())
	}
}

// TestMemoErrorMemoized: a plain (non-breaker-eligible) error from a
// pure compute is memoized like a value — recomputing would fail
// identically, so repeat reads serve the cached error without compute.
func TestMemoErrorMemoized(t *testing.T) {
	env, _ := memoEnv()
	r := env.NewRegistry("n1")
	var calls atomic.Int64
	boom := errors.New("bad input")
	r.MustDefine(&Definition{
		Kind: "failing",
		Pure: true,
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) {
				calls.Add(1)
				return nil, boom
			}), nil
		},
	})
	sub, err := r.Subscribe("failing")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	for i := 0; i < 3; i++ {
		if _, err := sub.Value(); !errors.Is(err, boom) {
			t.Fatalf("read %d: err = %v, want memoized error", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1 (error memoized)", got)
	}
}

// TestMemoCoalescesConcurrentReaders pins the singleflight contract: N
// concurrent readers of one cold memoized item cost exactly one
// compute; the other N-1 wait on the leader's flight and are counted as
// CoalescedReads.
func TestMemoCoalescesConcurrentReaders(t *testing.T) {
	env, _ := memoEnv()
	r := env.NewRegistry("n1")
	const readers = 8
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	r.MustDefine(&Definition{
		Kind: "slow",
		Pure: true,
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) {
				once.Do(func() { close(entered) })
				<-release
				return 42.0, nil
			}), nil
		},
	})
	sub, err := r.Subscribe("slow")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	before := env.Stats().Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := sub.Value(); err != nil || v.(float64) != 42 {
				t.Errorf("Value = %v, %v; want 42", v, err)
			}
		}()
	}
	// One reader is inside the compute; wait until the other N-1 have
	// registered as coalesced waiters, then release the leader.
	<-entered
	waitStat(t, &env.Stats().CoalescedReads, before.CoalescedReads+readers-1)
	close(release)
	wg.Wait()

	d := env.Stats().Snapshot().Sub(before)
	if d.OnDemandComputes != 1 {
		t.Fatalf("OnDemandComputes = %d, want 1 (singleflight)", d.OnDemandComputes)
	}
	if d.CoalescedReads != readers-1 {
		t.Fatalf("CoalescedReads = %d, want %d", d.CoalescedReads, readers-1)
	}
	if d.MemoMisses != 1 {
		t.Fatalf("MemoMisses = %d, want 1 (waiters are not misses)", d.MemoMisses)
	}
	// The published memo serves everyone from here.
	if v, _ := sub.Value(); v.(float64) != 42 {
		t.Fatal("memo not published after coalesced compute")
	}
	if d2 := env.Stats().Snapshot().Sub(before); d2.OnDemandComputes != 1 {
		t.Fatalf("OnDemandComputes = %d after hit, want 1", d2.OnDemandComputes)
	}
}

// TestMemoQuarantineInterplay: breaker-eligible failures are never
// memoized; the trip drops the memo and quarantined reads serve
// last-good tagged ErrStale; probe recovery restores fresh memoized
// reads.
func TestMemoQuarantineInterplay(t *testing.T) {
	vc := clock.NewVirtual()
	env := NewEnv(vc,
		WithMemoizedOnDemand(),
		WithBreaker(BreakerPolicy{
			FailureThreshold: 2,
			FailureWindow:    100,
			ProbeBackoff:     7,
			MaxProbeBackoff:  28,
		}))
	r := env.NewRegistry("n1")
	var failing atomic.Bool
	var calls atomic.Int64
	r.MustDefine(&Definition{
		Kind: "flaky",
		Pure: true,
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) {
				calls.Add(1)
				if failing.Load() {
					panic("injected")
				}
				return 42.0, nil
			}), nil
		},
	})
	sub, err := r.Subscribe("flaky")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	if v, _ := sub.Value(); v.(float64) != 42 {
		t.Fatal("healthy read failed")
	}
	sub.Value() // memo hit
	if got := calls.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1", got)
	}

	// Panics invalidate nothing by themselves — the memo still stamps
	// valid — so force misses through the purity escape hatch, then fail.
	failing.Store(true)
	r.NotifyChanged("flaky")
	if _, err := sub.Value(); !errors.Is(err, ErrComputePanic) || errors.Is(err, ErrStale) {
		t.Fatalf("failure 1 err = %v, want bare ErrComputePanic", err)
	}
	if _, err := sub.Value(); !errors.Is(err, ErrStale) {
		t.Fatalf("failure 2 err = %v, want quarantined ErrStale", err)
	}
	// Quarantined: served from last-good, no compute, no memoization.
	n := calls.Load()
	v, err := sub.Value()
	if !errors.Is(err, ErrStale) || v.(float64) != 42 {
		t.Fatalf("quarantined read = %v, %v; want 42 + ErrStale", v, err)
	}
	if calls.Load() != n {
		t.Fatal("quarantined read recomputed")
	}

	// Heal and run the probe (armed at +7 on the inline updater).
	failing.Store(false)
	vc.Advance(7)
	env.Quiesce()
	v, err = sub.Value()
	if err != nil || v.(float64) != 42 {
		t.Fatalf("recovered read = %v, %v; want fresh 42", v, err)
	}
	if hs, _ := r.Health("flaky"); hs.State != Healthy {
		t.Fatalf("health after probe = %+v, want healthy", hs)
	}
	// Memoization re-engages after recovery.
	n = calls.Load()
	sub.Value()
	if calls.Load() != n {
		t.Fatal("post-recovery read did not hit the re-stamped memo")
	}
}

// TestQueueDepthDeltaGauge is the regression test for the QueueDepth
// gauge race: with Store-based tracking, an enqueue's depth n could be
// overwritten by a racing dequeue's older n-1, leaving the gauge
// permanently skewed. The delta-based gauge must read exactly zero
// after balanced enqueue/dequeue traffic from many goroutines.
func TestQueueDepthDeltaGauge(t *testing.T) {
	var s Stats
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.noteQueueDelta(1)
				s.noteQueueDelta(-1)
			}
		}()
	}
	wg.Wait()
	if got := s.QueueDepth.Load(); got != 0 {
		t.Fatalf("QueueDepth = %d after balanced traffic, want 0", got)
	}
	hw := s.QueueHighWater.Load()
	if hw < 1 || hw > workers {
		t.Fatalf("QueueHighWater = %d, want in [1, %d]", hw, workers)
	}
}

// TestShardedCounter checks that concurrent striped adds sum exactly.
func TestShardedCounter(t *testing.T) {
	var c shardedCounter
	const workers, rounds = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*rounds {
		t.Fatalf("Load = %d, want %d", got, workers*rounds)
	}
	c.Add(-5)
	if got := c.Load(); got != workers*rounds-5 {
		t.Fatalf("Load after negative add = %d", got)
	}
}
