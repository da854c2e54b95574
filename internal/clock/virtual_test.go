package clock

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestVirtualStartsAtZero(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); got != 0 {
		t.Fatalf("Now() = %d, want 0", got)
	}
}

func TestVirtualAdvanceMovesTime(t *testing.T) {
	v := NewVirtual()
	v.Advance(25)
	if got := v.Now(); got != 25 {
		t.Fatalf("Now() = %d, want 25", got)
	}
	v.AdvanceTo(100)
	if got := v.Now(); got != 100 {
		t.Fatalf("Now() = %d, want 100", got)
	}
}

func TestVirtualAdvanceToPastIsNoop(t *testing.T) {
	v := NewVirtual()
	v.Advance(50)
	v.AdvanceTo(10)
	if got := v.Now(); got != 50 {
		t.Fatalf("Now() = %d, want 50 (AdvanceTo past must not rewind)", got)
	}
}

func TestVirtualNegativeAdvancePanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	v.Advance(-1)
}

func TestScheduleFiresInOrder(t *testing.T) {
	v := NewVirtual()
	var fired []Time
	v.Schedule(30, func(now Time) { fired = append(fired, now) })
	v.Schedule(10, func(now Time) { fired = append(fired, now) })
	v.Schedule(20, func(now Time) { fired = append(fired, now) })
	v.Advance(100)
	want := []Time{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestScheduleTieBreaksBySchedulingOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.Schedule(10, func(Time) { order = append(order, i) })
	}
	v.Advance(10)
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want ascending scheduling order", order)
		}
	}
}

func TestAdvanceStopsAtBoundary(t *testing.T) {
	v := NewVirtual()
	fired := false
	v.Schedule(11, func(Time) { fired = true })
	v.Advance(10)
	if fired {
		t.Fatal("event at t=11 fired during Advance(10)")
	}
	v.Advance(1)
	if !fired {
		t.Fatal("event at t=11 did not fire by t=11")
	}
}

func TestEventAtExactBoundaryFires(t *testing.T) {
	v := NewVirtual()
	fired := false
	v.Schedule(10, func(Time) { fired = true })
	v.Advance(10)
	if !fired {
		t.Fatal("event at t=10 did not fire during Advance(10)")
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	v := NewVirtual()
	v.Advance(5)
	var at Time = -1
	v.After(10, func(now Time) { at = now })
	v.Advance(20)
	if at != 15 {
		t.Fatalf("After(10) fired at %d, want 15", at)
	}
}

func TestSchedulePastFiresOnNextAdvance(t *testing.T) {
	v := NewVirtual()
	v.Advance(100)
	var at Time = -1
	v.Schedule(5, func(now Time) { at = now })
	v.Advance(1)
	if at != 100 {
		t.Fatalf("past event fired at %d, want current time 100", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	v := NewVirtual()
	fired := false
	e := v.Schedule(10, func(Time) { fired = true })
	if !v.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if v.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	v.Advance(100)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelAfterFireReturnsFalse(t *testing.T) {
	v := NewVirtual()
	e := v.Schedule(10, func(Time) {})
	v.Advance(100)
	if v.Cancel(e) {
		t.Fatal("Cancel returned true for already-fired event")
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	v := NewVirtual()
	var fired []Time
	v.Schedule(10, func(now Time) {
		fired = append(fired, now)
		v.Schedule(now.Add(10), func(now Time) { fired = append(fired, now) })
	})
	v.Advance(100)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
}

func TestCallbackSchedulingSameInstantFiresInSameAdvance(t *testing.T) {
	v := NewVirtual()
	var fired int
	v.Schedule(10, func(now Time) {
		fired++
		v.Schedule(now, func(Time) { fired++ })
	})
	v.Advance(10)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (same-instant event must run in same Advance)", fired)
	}
}

func TestPendingEvents(t *testing.T) {
	v := NewVirtual()
	e1 := v.Schedule(10, func(Time) {})
	v.Schedule(20, func(Time) {})
	if got := v.PendingEvents(); got != 2 {
		t.Fatalf("PendingEvents() = %d, want 2", got)
	}
	v.Cancel(e1)
	if got := v.PendingEvents(); got != 1 {
		t.Fatalf("PendingEvents() = %d, want 1 after cancel", got)
	}
	v.Advance(100)
	if got := v.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents() = %d, want 0 after drain", got)
	}
}

func TestConcurrentScheduleIsSafe(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	var mu sync.Mutex
	count := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v.Schedule(Time(i), func(Time) {
					mu.Lock()
					count++
					mu.Unlock()
				})
			}
		}(g)
	}
	wg.Wait()
	v.Advance(1000)
	if count != 800 {
		t.Fatalf("count = %d, want 800", count)
	}
}

// Property: for any set of scheduled times, events fire in nondecreasing
// time order and all events at or before the advance horizon fire.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(times []uint16, horizon uint16) bool {
		v := NewVirtual()
		var fired []Time
		for _, ti := range times {
			when := Time(ti)
			v.Schedule(when, func(now Time) { fired = append(fired, now) })
		}
		v.Advance(Duration(horizon))
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := 0
		for _, ti := range times {
			if Time(ti) <= Time(horizon) {
				want++
			}
		}
		return len(fired) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving Advance calls reaches the same final state as a
// single Advance of the total.
func TestPropertySplitAdvanceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		times := make([]Time, 20)
		for i := range times {
			times[i] = Time(rng.Intn(1000))
		}
		run := func(steps []Duration) []Time {
			v := NewVirtual()
			var fired []Time
			for _, when := range times {
				v.Schedule(when, func(now Time) { fired = append(fired, now) })
			}
			for _, s := range steps {
				v.Advance(s)
			}
			return fired
		}
		single := run([]Duration{1000})
		var split []Duration
		rem := Duration(1000)
		for rem > 0 {
			s := Duration(rng.Intn(int(rem)) + 1)
			split = append(split, s)
			rem -= s
		}
		multi := run(split)
		if len(single) != len(multi) {
			t.Fatalf("trial %d: single fired %d, split fired %d", trial, len(single), len(multi))
		}
		for i := range single {
			if single[i] != multi[i] {
				t.Fatalf("trial %d: firing sequence diverged at %d", trial, i)
			}
		}
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	v := NewVirtual()
	var fired []Time
	tk := NewTicker(v, 10, func(now Time) { fired = append(fired, now) })
	v.Advance(35)
	want := []Time{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	tk.Stop()
	v.Advance(100)
	if len(fired) != 3 {
		t.Fatalf("ticker fired after Stop: %v", fired)
	}
}

func TestTickerStopIsIdempotent(t *testing.T) {
	v := NewVirtual()
	tk := NewTicker(v, 5, func(Time) {})
	tk.Stop()
	tk.Stop()
	if got := v.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents() = %d, want 0 after Stop", got)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("NewTicker(period=0) did not panic")
		}
	}()
	NewTicker(v, 0, func(Time) {})
}

func TestTickerPeriod(t *testing.T) {
	v := NewVirtual()
	var fired []Time
	tk := NewTicker(v, 7, func(now Time) { fired = append(fired, now) })
	defer tk.Stop()
	v.Advance(21)
	if len(fired) != 3 || fired[0] != 7 || fired[1] != 14 || fired[2] != 21 {
		t.Fatalf("ticks at %v, want [7 14 21]", fired)
	}
}

func TestTimeArithmetic(t *testing.T) {
	var a Time = 10
	if got := a.Add(5); got != 15 {
		t.Fatalf("Add = %d, want 15", got)
	}
	if got := Time(15).Sub(a); got != 5 {
		t.Fatalf("Sub = %d, want 5", got)
	}
}
