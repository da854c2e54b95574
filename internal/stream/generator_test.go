package stream

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func collect(g Generator, max int) []Arrival {
	var out []Arrival
	for len(out) < max {
		a, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

func TestConstantRateTimes(t *testing.T) {
	g := NewConstantRate(0, 10, 5)
	as := collect(g, 100)
	if len(as) != 5 {
		t.Fatalf("got %d arrivals, want 5", len(as))
	}
	for i, a := range as {
		if a.At != clock.Time(i*10) {
			t.Fatalf("arrival %d at %d, want %d", i, a.At, i*10)
		}
	}
}

func TestConstantRateReset(t *testing.T) {
	g := NewConstantRate(5, 3, 4)
	first := collect(g, 10)
	g.Reset()
	second := collect(g, 10)
	if len(first) != len(second) {
		t.Fatalf("reset changed length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].At != second[i].At {
			t.Fatal("reset changed arrival times")
		}
	}
}

func TestConstantRateUnbounded(t *testing.T) {
	g := NewConstantRate(0, 1, 0)
	as := collect(g, 1000)
	if len(as) != 1000 {
		t.Fatalf("unbounded generator stopped at %d", len(as))
	}
}

func TestConstantRateInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	NewConstantRate(0, 0, 1)
}

func TestConstantRateCustomTuple(t *testing.T) {
	g := NewConstantRate(0, 1, 3)
	g.MakeTup = func(i int) Tuple { return Tuple{i * 2} }
	as := collect(g, 3)
	if as[2].Tuple[0] != 4 {
		t.Fatalf("MakeTup ignored: %v", as[2].Tuple)
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := collect(NewPoisson(0, 0.1, 100, 7), 100)
	b := collect(NewPoisson(0, 0.1, 100, 7), 100)
	for i := range a {
		if a[i].At != b[i].At {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := collect(NewPoisson(0, 0.1, 100, 8), 100)
	same := true
	for i := range a {
		if a[i].At != c[i].At {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	g := NewPoisson(0, 0.05, 20000, 42)
	tr := Record(g, 0)
	got := tr.MeasuredRate()
	if math.Abs(got-0.05)/0.05 > 0.10 {
		t.Fatalf("measured rate %v, want ~0.05 (±10%%)", got)
	}
}

func TestPoissonMonotonic(t *testing.T) {
	tr := Record(NewPoisson(0, 1, 1000, 3), 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBurstyShape(t *testing.T) {
	// 1 element per unit for 10 units, then 90 units silence.
	g := NewBursty(0, 1, 10, 90, 25)
	as := collect(g, 25)
	if as[0].At != 0 || as[9].At != 9 {
		t.Fatalf("first burst wrong: %v ... %v", as[0].At, as[9].At)
	}
	if as[10].At != 100 {
		t.Fatalf("second burst starts at %d, want 100", as[10].At)
	}
	if as[19].At != 109 {
		t.Fatalf("second burst ends at %d, want 109", as[19].At)
	}
	if as[20].At != 200 {
		t.Fatalf("third burst starts at %d, want 200", as[20].At)
	}
}

func TestBurstyRates(t *testing.T) {
	g := NewBursty(0, 1, 10, 90, 0)
	if got := g.MeanRate(); got != 0.1 {
		t.Fatalf("MeanRate = %v, want 0.1", got)
	}
}

func TestBurstyMeasuredMatchesMeanRate(t *testing.T) {
	g := NewBursty(0, 2, 20, 80, 5000)
	tr := Record(g, 0)
	got := tr.MeasuredRate()
	want := g.MeanRate()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("measured %v, analytic mean %v", got, want)
	}
}

func TestZipfValuesSkewed(t *testing.T) {
	g := NewZipfValues(NewConstantRate(0, 1, 10000), 100, 1.5, 11)
	counts := map[int]int{}
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		counts[a.Tuple[0].(int)]++
	}
	if counts[0] <= counts[50]*2 {
		t.Fatalf("zipf not skewed: count[0]=%d count[50]=%d", counts[0], counts[50])
	}
}

func TestZipfValuesResetReproduces(t *testing.T) {
	g := NewZipfValues(NewConstantRate(0, 1, 50), 10, 2, 5)
	a := collect(g, 50)
	g.Reset()
	b := collect(g, 50)
	for i := range a {
		if a[i].Tuple[0] != b[i].Tuple[0] {
			t.Fatal("Reset did not reproduce the sequence")
		}
	}
}

func TestRecordAndReplay(t *testing.T) {
	tr := Record(NewConstantRate(0, 10, 7), 0)
	if tr.Len() != 7 {
		t.Fatalf("Len = %d, want 7", tr.Len())
	}
	first := collect(tr, 100)
	tr.Reset()
	second := collect(tr, 100)
	if len(first) != 7 || len(second) != 7 {
		t.Fatal("trace replay lost arrivals")
	}
}

func TestRecordLimit(t *testing.T) {
	tr := Record(NewConstantRate(0, 1, 0), 10)
	if tr.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tr.Len())
	}
}

// MeasuredRate returns the empirical rate of the trace: count divided
// by the span from the first to one past the last arrival.
func (t *Trace) MeasuredRate() float64 {
	if len(t.Arrivals) < 2 {
		return 0
	}
	span := t.Arrivals[len(t.Arrivals)-1].At - t.Arrivals[0].At
	if span <= 0 {
		return 0
	}
	return float64(len(t.Arrivals)-1) / float64(span)
}

func TestTraceMeasuredRateConstant(t *testing.T) {
	tr := Record(NewConstantRate(0, 10, 101), 0)
	if got := tr.MeasuredRate(); got != 0.1 {
		t.Fatalf("MeasuredRate = %v, want 0.1", got)
	}
}

func TestTraceMeasuredRateDegenerate(t *testing.T) {
	if got := (&Trace{}).MeasuredRate(); got != 0 {
		t.Fatalf("empty trace rate = %v, want 0", got)
	}
	one := &Trace{Arrivals: []Arrival{{At: 5}}}
	if got := one.MeasuredRate(); got != 0 {
		t.Fatalf("singleton trace rate = %v, want 0", got)
	}
}

func TestValidateDetectsDisorder(t *testing.T) {
	tr := &Trace{Arrivals: []Arrival{{At: 10}, {At: 5}}}
	if tr.Validate() == nil {
		t.Fatal("Validate accepted out-of-order trace")
	}
}

// Property: bursty generator always yields a valid (ordered) trace and
// its measured rate sits between 0 and the peak rate.
func TestPropertyBurstyOrdered(t *testing.T) {
	f := func(onIv, onDur, offDur uint8) bool {
		iv := clock.Duration(onIv%10) + 1
		od := (clock.Duration(onDur%10) + 1) * iv
		fd := clock.Duration(offDur % 100)
		g := NewBursty(0, iv, od, fd, 200)
		tr := Record(g, 0)
		if tr.Validate() != nil {
			return false
		}
		r := tr.MeasuredRate()
		return r >= 0 && r <= 1/float64(iv)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
