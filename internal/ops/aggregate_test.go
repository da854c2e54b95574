package ops

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/stream"
)

func TestCountAggregateSlidesWithValidity(t *testing.T) {
	g, _ := newTestGraph()
	a := NewAggregate(g, "cnt", NewCount(), 0)
	// Three elements valid 20 units each, arriving every 10.
	out1 := a.Process(windowed(1, 0, 20), 0)
	out2 := a.Process(windowed(2, 10, 20), 0)
	out3 := a.Process(windowed(3, 20, 20), 0) // first expired (End 20 <= TS 20)
	if v := out1[0].Tuple[0].(float64); v != 1 {
		t.Fatalf("count after 1st = %v", v)
	}
	if v := out2[0].Tuple[0].(float64); v != 2 {
		t.Fatalf("count after 2nd = %v", v)
	}
	if v := out3[0].Tuple[0].(float64); v != 2 {
		t.Fatalf("count after 3rd = %v, want 2 (first element expired)", v)
	}
}

func TestSumAvgAggregates(t *testing.T) {
	g, _ := newTestGraph()
	sum := NewAggregate(g, "sum", NewSum(0), 0)
	avg := NewAggregate(g, "avg", NewAvg(0), 0)
	for _, v := range []int{10, 20, 30} {
		sum.Process(windowed(v, 0, 100), 0)
		avg.Process(windowed(v, 0, 100), 0)
	}
	got := sum.Process(windowed(40, 1, 100), 0)
	if v := got[0].Tuple[0].(float64); v != 100 {
		t.Fatalf("sum = %v, want 100", v)
	}
	got = avg.Process(windowed(40, 1, 100), 0)
	if v := got[0].Tuple[0].(float64); v != 25 {
		t.Fatalf("avg = %v, want 25", v)
	}
}

func TestVarAggregate(t *testing.T) {
	g, _ := newTestGraph()
	a := NewAggregate(g, "var", NewVar(0), 0)
	var out []stream.Element
	for _, v := range []int{2, 4, 4, 4, 5, 5, 7, 9} {
		out = a.Process(windowed(v, 0, 1000), 0)
	}
	// Known population variance of this classic sequence is 4.
	if v := out[0].Tuple[0].(float64); math.Abs(v-4) > 1e-9 {
		t.Fatalf("variance = %v, want 4", v)
	}
}

func TestMinAggregateWithExpiry(t *testing.T) {
	g, _ := newTestGraph()
	a := NewAggregate(g, "min", NewMin(0), 0)
	a.Process(windowed(5, 0, 15), 0)
	out := a.Process(windowed(9, 10, 15), 0)
	if v := out[0].Tuple[0].(float64); v != 5 {
		t.Fatalf("min = %v, want 5", v)
	}
	// At t=20 the 5 has expired; min is 9.
	out = a.Process(windowed(12, 20, 15), 0)
	if v := out[0].Tuple[0].(float64); v != 9 {
		t.Fatalf("min = %v, want 9 after expiry", v)
	}
}

func TestAggregateStateSizeMetadata(t *testing.T) {
	g, _ := newTestGraph()
	a := NewAggregate(g, "cnt", NewCount(), 0)
	sub, _ := a.Registry().Subscribe(KindStateSize)
	defer sub.Unsubscribe()
	a.Process(windowed(1, 0, 100), 0)
	a.Process(windowed(2, 1, 100), 0)
	if v, _ := sub.Float(); v != 2 {
		t.Fatalf("stateSize = %v, want 2", v)
	}
}

func TestGroupAggregate(t *testing.T) {
	g, _ := newTestGraph()
	// Tuples (key, value): sum value per key.
	a := NewGroupAggregate(g, "gsum", 0, NewSum(1), 0)
	mk := func(k string, v int, ts clock.Time) stream.Element {
		return stream.Element{Tuple: stream.Tuple{k, v}, TS: ts, End: ts + 100}
	}
	a.Process(mk("a", 1, 0), 0)
	a.Process(mk("b", 10, 1), 0)
	out := a.Process(mk("a", 2, 2), 0)
	if out[0].Tuple[0] != "a" || out[0].Tuple[1].(float64) != 3 {
		t.Fatalf("group a = %v, want (a, 3)", out[0].Tuple)
	}
	out = a.Process(mk("b", 5, 3), 0)
	if out[0].Tuple[0] != "b" || out[0].Tuple[1].(float64) != 15 {
		t.Fatalf("group b = %v, want (b, 15)", out[0].Tuple)
	}
}

func TestGroupAggregateExpiry(t *testing.T) {
	g, _ := newTestGraph()
	a := NewGroupAggregate(g, "gcnt", 0, NewCount(), 0)
	mk := func(k string, ts clock.Time, w clock.Duration) stream.Element {
		return stream.Element{Tuple: stream.Tuple{k}, TS: ts, End: ts.Add(w)}
	}
	a.Process(mk("a", 0, 10), 0)
	out := a.Process(mk("a", 20, 10), 0) // first a expired
	if out[0].Tuple[1].(float64) != 1 {
		t.Fatalf("group count = %v, want 1 after expiry", out[0].Tuple)
	}
}

// TestPropertyAggregateEqualsRescan: the incremental windowed average
// always equals a brute-force recomputation over the live window.
func TestPropertyAggregateEqualsRescan(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _ := newTestGraph()
		a := NewAggregate(g, "avg", NewAvg(0), 0)
		var all []stream.Element
		ts := clock.Time(0)
		for i := 0; i < 150; i++ {
			ts += clock.Time(rng.Intn(4))
			e := windowed(rng.Intn(100), ts, clock.Duration(rng.Intn(30)+1))
			all = append(all, e)
			out := a.Process(e, 0)
			got := out[0].Tuple[0].(float64)
			// Reference: mean over elements valid at ts (End > ts).
			sum, n := 0.0, 0
			for _, x := range all {
				if x.End > ts {
					sum += float64(x.Tuple[0].(int))
					n++
				}
			}
			want := sum / float64(n)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d step %d: avg = %v, want %v", seed, i, got, want)
			}
		}
	}
}

func TestAggSchemas(t *testing.T) {
	if s := aggSchema(NewCount()); s.Arity() != 1 || s.Name != "count" {
		t.Fatalf("aggSchema = %v", s)
	}
	if s := groupAggSchema(NewSum(1)); s.Arity() != 2 {
		t.Fatalf("groupAggSchema = %v", s)
	}
}

func TestAggCloneIndependent(t *testing.T) {
	protos := []AggFunc{NewCount(), NewSum(0), NewAvg(0), NewVar(0), NewMin(0)}
	for _, p := range protos {
		p.Add(stream.Tuple{5})
		c := p.Clone()
		if c.Value() != 0 && p.Name() != "min(0)" {
			t.Fatalf("%s: clone inherited state: %v", p.Name(), c.Value())
		}
		c.Add(stream.Tuple{3})
		if p.Name() == "count" && p.Value() != 1 {
			t.Fatal("clone mutated prototype")
		}
	}
}
