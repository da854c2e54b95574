package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

// TestConcurrentSubscribeUnsubscribe hammers the structural path from
// many goroutines. Run with -race.
func TestConcurrentSubscribeUnsubscribe(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	defineConst(r, "a", 1.0)
	defineDerived(r, "b", Dep(Self(), "a"))
	defineDerived(r, "c", Dep(Self(), "b"))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kinds := []Kind{"a", "b", "c"}
			for i := 0; i < 200; i++ {
				s, err := r.Subscribe(kinds[(g+i)%3])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Float(); err != nil {
					t.Error(err)
					return
				}
				s.Unsubscribe()
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Included()); got != 0 {
		t.Fatalf("%d items left included", got)
	}
	if c, rm := env.Stats().HandlersCreated.Load(), env.Stats().HandlersRemoved.Load(); c != rm {
		t.Fatalf("created %d != removed %d", c, rm)
	}
}

// TestConcurrentReadsDuringPeriodicUpdates checks the isolation
// condition under real concurrency: readers never observe a torn or
// reset measurement while the periodic handler publishes.
func TestConcurrentReadsDuringPeriodicUpdates(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n")
	var count Counter
	r.MustDefine(&Definition{
		Kind:  "rate",
		Probe: &count,
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
				w := end.Sub(start)
				if w == 0 {
					return 0.0, nil
				}
				return float64(count.Take()) / float64(w), nil
			}), nil
		},
	})
	// Arrivals: 1 per unit. Scheduled before the subscription arms the
	// first boundary, so at every boundary instant the arrival fires
	// before the tick (arm order) and every window holds exactly ten —
	// armed the other way round the first two windows read 0.9 and 1.1
	// and the test depended on no reader being scheduled that early.
	for i := 1; i <= 1000; i++ {
		vc.Schedule(clock.Time(i), func(clock.Time) { count.Inc() })
	}
	s, _ := r.Subscribe("rate")
	defer s.Unsubscribe()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := s.Float()
				if err != nil {
					t.Errorf("read error: %v", err)
					return
				}
				// Published values are either the initial 0 or the
				// exact rate 1.0; any other value means a reader
				// interfered with the measurement.
				if v != 0 && v != 1 {
					t.Errorf("torn rate value %v", v)
					return
				}
			}
		}()
	}
	vc.Advance(1000)
	close(stop)
	wg.Wait()
}

// TestConcurrentEventsAndSubscriptions exercises trigger propagation
// racing with structural changes.
func TestConcurrentEventsAndSubscriptions(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	val := 1.0
	r.MustDefine(&Definition{
		Kind:   "base",
		Events: []string{"changed"},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) { return val, nil }), nil
		},
	})
	defineDerived(r, "d1", Dep(Self(), "base"))
	defineDerived(r, "d2", Dep(Self(), "d1"))

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			r.FireEvent("changed")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s, err := r.Subscribe("d2")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Float(); err != nil {
				t.Error(err)
				return
			}
			s.Unsubscribe()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s, err := r.Subscribe("d1")
			if err != nil {
				t.Error(err)
				return
			}
			s.Unsubscribe()
		}
	}()
	wg.Wait()
	if got := len(r.Included()); got != 0 {
		t.Fatalf("%d items left included", got)
	}
}

// TestPoolUpdaterRunsPeriodicUpdates exercises the worker-pool path of
// Section 4.3 end to end.
func TestPoolUpdaterRunsPeriodicUpdates(t *testing.T) {
	vc := clock.NewVirtual()
	pool := NewPoolUpdater(4)
	defer pool.Stop()
	env := NewEnv(vc, WithUpdater(pool))
	r := env.NewRegistry("n")
	for i := 0; i < 8; i++ {
		kind := Kind(rune('a' + i))
		r.MustDefine(&Definition{
			Kind: kind,
			Build: func(*BuildContext) (Handler, error) {
				return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
					return float64(end), nil
				}), nil
			},
		})
	}
	var subs []*Subscription
	for i := 0; i < 8; i++ {
		s, err := r.Subscribe(Kind(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	vc.Advance(100)
	pool.WaitIdle()
	// Workers may execute tick tasks out of order; stale ticks are
	// skipped, so the update count is bounded by 8 handlers x 10
	// windows but every handler ends on the newest window.
	if got := env.Stats().PeriodicUpdates.Load(); got == 0 || got > 80 {
		t.Fatalf("PeriodicUpdates = %d, want in (0, 80]", got)
	}
	for _, s := range subs {
		v, err := s.Float()
		if err != nil {
			t.Fatal(err)
		}
		if v != 100 {
			t.Fatalf("value = %v, want 100", v)
		}
		s.Unsubscribe()
	}
}

// returnSignalingUpdater runs tasks on its Updater and signals on
// returned each time one of them returns.
type returnSignalingUpdater struct {
	Updater
	returned chan struct{}
}

func (u *returnSignalingUpdater) Submit(fn func()) {
	u.Updater.Submit(func() {
		fn()
		u.returned <- struct{}{}
	})
}

// TestHeldWindowKeepsLastBoundary holds the compute of the window ending
// at 90 on a pool worker until the batch of the boundary at 100 has run
// and returned; that tick finds the item's mutex taken. When the held
// compute returns, the item must still end on the window ending at 100:
// the boundary a skipped tick leaves behind is the last one, and no
// later tick covers it.
func TestHeldWindowKeepsLastBoundary(t *testing.T) {
	vc := clock.NewVirtual()
	// One signal per scope batch: the ten boundaries of one item.
	upd := &returnSignalingUpdater{Updater: NewPoolUpdater(2), returned: make(chan struct{}, 10)}
	defer upd.Stop()
	env := NewEnv(vc, WithUpdater(upd))
	r := env.NewRegistry("n")
	entered, release := make(chan struct{}), make(chan struct{})
	r.MustDefine(&Definition{
		Kind: "w",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(start, end clock.Time) (Value, error) {
				if end == 90 {
					close(entered)
					<-release
				}
				return float64(end), nil
			}), nil
		},
	})
	s, err := r.Subscribe("w")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	for i := 0; i < 8; i++ {
		vc.Advance(10)
		<-upd.returned
	}
	vc.Advance(10)
	<-entered
	vc.Advance(10)
	<-upd.returned // the batch of the boundary at 100
	close(release)
	upd.WaitIdle()
	if v, err := s.Float(); err != nil || v != 100 {
		t.Fatalf("value = %v (err %v), want 100", v, err)
	}
	if got := env.Stats().ScopeBatches.Load(); got != 10 {
		t.Fatalf("ScopeBatches = %d, want 10", got)
	}
}

// TestSideBlockRacesPublishers runs pooled periodic publishers against
// everything that makes or uses a side block on the same items:
// Watch/Unwatch, TrackReads with lock-free reads, and a delta aggregate
// over them subscribed and released, which moves their delta edge
// state while they publish. Run with -race: the side block is made
// lazily under the scope lock while publishers and readers load it
// holding no lock.
func TestSideBlockRacesPublishers(t *testing.T) {
	vc := clock.NewVirtual()
	pool := NewPoolUpdater(4)
	defer pool.Stop()
	env := NewEnv(vc, WithUpdater(pool))
	r := env.NewRegistry("n")
	var kinds []Kind
	var deps []DepRef
	for i := 0; i < 6; i++ {
		kind := Kind(rune('a' + i))
		kinds, deps = append(kinds, kind), append(deps, Dep(Self(), kind))
		r.MustDefine(&Definition{
			Kind: kind,
			Build: func(*BuildContext) (Handler, error) {
				return NewPeriodic(10, func(_, end clock.Time) (Value, error) { return float64(end), nil }), nil
			},
		})
	}
	defineDeltaAgg(r, "sum", DeltaSum(), deps...)
	var subs []*Subscription
	for _, k := range kinds {
		s, err := r.Subscribe(k)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Unsubscribe()
		subs = append(subs, s)
	}

	sink := &recordingSink{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body(i)
			}
		}()
	}
	loop(func(i int) {
		k := kinds[i%len(kinds)]
		if _, err := r.Watch(k, sink); err != nil {
			t.Error(err)
		}
		if i%3 == 0 {
			r.Unwatch(k)
		}
	})
	loop(func(i int) {
		r.TrackReads(kinds[i%len(kinds)])
		if _, err := subs[i%len(subs)].Float(); err != nil {
			t.Error(err)
		}
	})
	var cycles atomic.Int64
	loop(func(int) {
		cycles.Add(1)
		s, err := r.Subscribe("sum")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Float(); err != nil {
			t.Error(err)
		}
		s.Unsubscribe()
	})
	// Publish until every racer has had its turns (bounded, for a
	// scheduler that starves them).
	for i := 0; i < 100000 && (i < 300 || len(sink.versions()) < 100 || cycles.Load() < 100); i++ {
		vc.Advance(10)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	pool.WaitIdle()

	if len(sink.versions()) == 0 {
		t.Fatal("the watched publishers reported no publication")
	}
	ext := map[ItemKey]int{}
	for _, k := range kinds {
		ext[ItemKey{Registry: "n", Kind: k}] = 1
	}
	if errs := VerifyIntegrity(ext, r); len(errs) > 0 {
		t.Fatalf("integrity: %v", errs)
	}
}
