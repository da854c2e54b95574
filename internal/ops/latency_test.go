package ops

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/stream"
)

func TestSinkAvgLatencyMetadata(t *testing.T) {
	g, vc := newTestGraph()
	s := NewSink(g, "k", intSchema, nil, 0, 0, 100)
	sub, err := s.Registry().Subscribe(KindAvgLatency)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	// Deliver elements whose timestamps lag the current time by 5 and
	// 15 units inside the first window.
	vc.Schedule(50, func(now clock.Time) {
		s.Process(stream.NewElement(stream.Tuple{1}, now-5), 0)
		s.Process(stream.NewElement(stream.Tuple{2}, now-15), 0)
	})
	vc.Advance(100)
	if v, _ := sub.Float(); v != 10 {
		t.Fatalf("avgLatency = %v, want 10", v)
	}

	// A window without deliveries keeps the previous value (like the
	// selectivity item).
	vc.Advance(100)
	if v, _ := sub.Float(); v != 10 {
		t.Fatalf("avgLatency after idle window = %v, want retained 10", v)
	}
}

func TestSinkLatencyProbeInactiveWithoutSubscription(t *testing.T) {
	g, vc := newTestGraph()
	s := NewSink(g, "k", intSchema, nil, 0, 0, 100)
	// No subscription: delivering elements must not accumulate
	// latency state (activation-gated monitoring).
	vc.Advance(50)
	s.Process(stream.NewElement(stream.Tuple{1}, 0), 0)
	if s.latCount.Read() != 0 || s.latSum.Take() != 0 {
		t.Fatal("latency probes counted while inactive")
	}
}

func TestFilterPredicateAccessors(t *testing.T) {
	g, _ := newTestGraph()
	f := NewFilter(g, "f", intSchema, func(tp stream.Tuple) bool { return tp[0].(int) > 0 }, 0)
	f.SetCostPerElement(7)
	if f.CostPerElement() != 7 {
		t.Fatal("cost accessor wrong")
	}
	pred := f.Predicate()
	if !pred(stream.Tuple{1}) || pred(stream.Tuple{-1}) {
		t.Fatal("Predicate accessor returned wrong function")
	}
	f.SetPredicate(func(stream.Tuple) bool { return false }, 3)
	if f.CostPerElement() != 3 {
		t.Fatal("SetPredicate did not update cost")
	}
	if out := f.Process(el(1, 0), 0); len(out) != 0 {
		t.Fatal("new predicate not in effect")
	}
}
