package modelcheck

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/watch"
)

// TestMain fails the package if a test leaves a goroutine running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// This file checks the watch hub's delivery contract against the
// published version stream:
//
//  1. monotonic — a watcher's event versions strictly increase;
//  2. gap-free — every skipped version is flagged (Snapshot on the
//     catch-up head, Coalesced on merged deltas), so an unflagged
//     event is always exactly prev+1;
//  3. bounded — no event exceeds the item's published version;
//  4. caught up — at quiescence (publishers done, hub barrier), every
//     open watcher's last delivered event is the item's current
//     version.
//
// deliverySchedule and deliveryStress check it on the hub here and,
// through a relay hop, in relay_test.go.

// watchPlane builds a registry with a static "src" and a triggered
// "val" republishing on every src notification, pinned by an
// application subscription so its version stream spans the whole test.
func watchPlane(t *testing.T) (*core.Env, *core.Registry, func()) {
	t.Helper()
	env := core.NewEnv(clock.NewVirtual())
	r := env.NewRegistry("w1")
	r.MustDefine(&core.Definition{
		Kind:  "src",
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(0.0), nil },
	})
	n := new(atomic.Int64)
	r.MustDefine(&core.Definition{
		Kind: "val",
		Deps: []core.DepRef{core.Dep(core.Self(), "src")},
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return float64(n.Load()), nil
			}), nil
		},
	})
	sub, err := r.Subscribe("val")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Unsubscribe)
	return env, r, func() {
		n.Add(1)
		r.NotifyChanged("src")
	}
}

// checkWatchDelivery asserts properties 1-3 on one watcher's event
// sequence, given the version it resumed from and the final published
// version, and property 4 when the watcher is still open at quiescence.
func checkWatchDelivery(t *testing.T, label string, since uint64, evs []watch.Event, final uint64, open bool) {
	t.Helper()
	prev := since
	for i, ev := range evs {
		if ev.Version <= prev {
			t.Fatalf("%s: event %d version %d does not advance past %d", label, i, ev.Version, prev)
		}
		if ev.Version > final {
			t.Fatalf("%s: event %d version %d exceeds published version %d", label, i, ev.Version, final)
		}
		if ev.Version > prev+1 && !ev.Snapshot && !ev.Coalesced {
			t.Fatalf("%s: event %d jumps %d -> %d without a Snapshot/Coalesced flag", label, i, prev, ev.Version)
		}
		if ev.Snapshot && i != 0 {
			t.Fatalf("%s: event %d is a Snapshot mid-stream", label, i)
		}
		prev = ev.Version
	}
	if open && prev != final {
		t.Fatalf("%s: last delivered %d, want final %d", label, prev, final)
	}
}

func drainW(w *watch.Watcher) []watch.Event {
	var evs []watch.Event
	for {
		ev, ok := w.Poll()
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

// deliveryPlane is where a suite's watchers live: open watches w1/val,
// publish makes one more version, and barrier(v) waits until they can
// have seen v and returns the item's version where they live.
type deliveryPlane struct {
	open    func(watch.Options) (*watch.Watcher, error)
	publish func()
	barrier func(v uint64) (uint64, bool)
}

// hubPlane hosts the watchers on a hub over watchPlane.
func hubPlane(t *testing.T) deliveryPlane {
	t.Helper()
	env, r, publish := watchPlane(t)
	h := watch.NewHub(env)
	t.Cleanup(h.Close)
	return deliveryPlane{
		open:    func(o watch.Options) (*watch.Watcher, error) { return h.Watch(r, "val", o) },
		publish: publish,
		barrier: func(uint64) (uint64, bool) {
			h.Barrier()
			return r.ItemVersion("val")
		},
	}
}

// deliverySchedule interleaves seeded publishes, joins (random resume
// points and ring sizes), drains and closes, then checks every history.
func deliverySchedule(t *testing.T, p deliveryPlane, rng *rand.Rand, steps int) {
	t.Helper()
	type rec struct {
		since uint64
		evs   []watch.Event
		w     *watch.Watcher
	}
	var open, closed []*rec
	published := uint64(1) // the pinning subscription published v1
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0: // join at a random resume point with a random ring
			since := uint64(rng.Intn(int(published) + 1))
			w, err := p.open(watch.Options{Since: since, Buffer: 1 << rng.Intn(5)})
			if err != nil {
				t.Fatal(err)
			}
			open = append(open, &rec{since: since, w: w})
		case 1: // drain everybody at a barrier
			p.barrier(published)
			for _, rc := range open {
				rc.evs = append(rc.evs, drainW(rc.w)...)
			}
		case 2: // close a random watcher (its history still checks)
			if len(open) > 0 {
				j := rng.Intn(len(open))
				rc := open[j]
				p.barrier(published)
				rc.evs = append(rc.evs, drainW(rc.w)...)
				rc.w.Close()
				open = append(open[:j], open[j+1:]...)
				closed = append(closed, rc)
			}
		default:
			p.publish()
			published++
		}
	}

	final, ok := p.barrier(published)
	if !ok || final != published {
		t.Fatalf("published version = %d,%v, want %d", final, ok, published)
	}
	for i, rc := range open {
		rc.evs = append(rc.evs, drainW(rc.w)...)
		checkWatchDelivery(t, fmt.Sprintf("open[%d]", i), rc.since, rc.evs, final, true)
		rc.w.Close()
	}
	for i, rc := range closed {
		checkWatchDelivery(t, fmt.Sprintf("closed[%d]", i), rc.since, rc.evs, final, false)
	}
}

// deliveryStress races 4 publishers against three long-lived consumers
// (a 1-slot ring forces shed and coalesce-to-latest) and a watch/unwatch
// churn goroutine; every history must end at the final version.
func deliveryStress(t *testing.T, p deliveryPlane) {
	t.Helper()
	type consumer struct {
		w    *watch.Watcher
		evs  []watch.Event
		done chan struct{}
	}
	mk := func(buffer int) *consumer {
		w, err := p.open(watch.Options{Buffer: buffer})
		if err != nil {
			t.Fatal(err)
		}
		c := &consumer{w: w, done: make(chan struct{})}
		go func() {
			defer close(c.done)
			for {
				ev, ok := c.w.Next()
				if !ok {
					return
				}
				c.evs = append(c.evs, ev)
			}
		}()
		return c
	}
	consumers := []*consumer{mk(64), mk(4), mk(1)}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			w, err := p.open(watch.Options{Buffer: 1 + rng.Intn(4)})
			if err != nil {
				continue
			}
			w.Poll()
			w.Close()
		}
	}()

	const workers, perWorker = 4, 250
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				p.publish()
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	final, ok := p.barrier(workers*perWorker + 1)
	if !ok || final != workers*perWorker+1 {
		t.Fatalf("final version = %d,%v, want %d", final, ok, workers*perWorker+1)
	}
	for i, c := range consumers {
		c.w.Close()
		<-c.done
		c.evs = append(c.evs, drainW(c.w)...)
		checkWatchDelivery(t, fmt.Sprintf("consumer[%d]", i), 0, c.evs, final, true)
	}
}

func TestWatchDeliverySequential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			deliverySchedule(t, hubPlane(t), rng, 200)
		})
	}
}

// TestWatchStressConcurrent runs deliveryStress on the hub; use -race.
func TestWatchStressConcurrent(t *testing.T) {
	deliveryStress(t, hubPlane(t))
}
