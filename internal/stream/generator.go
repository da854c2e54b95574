package stream

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/clock"
)

// Arrival is one element arrival in a stream trace.
type Arrival struct {
	// At is the arrival (and application) time.
	At clock.Time
	// Tuple is the element payload.
	Tuple Tuple
}

// Generator produces a deterministic sequence of arrivals. Generators
// model the raw data streams at the bottom of the query graph; the
// experiments configure their rate shapes (constant, Poisson, bursty)
// to match the scenarios of Figures 4 and 5.
type Generator interface {
	// Next returns the next arrival. ok is false when the stream is
	// exhausted.
	Next() (Arrival, bool)
	// Reset rewinds the generator to its initial state so the exact
	// same sequence is produced again.
	Reset()
}

// --- Constant-rate generator (Figure 4's workload) ---

// constantRate emits one element every Interval time units, starting at
// Start, for Count elements (Count <= 0 means unbounded).
type constantRate struct {
	Start    clock.Time
	Interval clock.Duration
	Count    int
	MakeTup  func(i int) Tuple

	i int
}

// NewConstantRate returns a generator emitting one single-attribute
// tuple (the sequence number) every interval units.
func NewConstantRate(start clock.Time, interval clock.Duration, count int) *constantRate {
	if interval <= 0 {
		panic("stream: constant-rate interval must be positive")
	}
	return &constantRate{Start: start, Interval: interval, Count: count}
}

// Next implements Generator.
func (g *constantRate) Next() (Arrival, bool) {
	if g.Count > 0 && g.i >= g.Count {
		return Arrival{}, false
	}
	at := g.Start.Add(clock.Duration(g.i) * g.Interval)
	tup := Tuple{g.i}
	if g.MakeTup != nil {
		tup = g.MakeTup(g.i)
	}
	g.i++
	return Arrival{At: at, Tuple: tup}, true
}

// Reset implements Generator.
func (g *constantRate) Reset() { g.i = 0 }

// --- Poisson generator ---

// poisson emits elements with exponentially distributed inter-arrival
// times of mean 1/Rate, deterministically from Seed.
type poisson struct {
	Start   clock.Time
	Rate    float64 // elements per time unit
	Count   int
	Seed    int64
	MakeTup func(i int) Tuple

	rng *rand.Rand
	i   int
	at  clock.Time
}

// NewPoisson returns a Poisson-process generator.
func NewPoisson(start clock.Time, rate float64, count int, seed int64) *poisson {
	if rate <= 0 {
		panic("stream: poisson rate must be positive")
	}
	g := &poisson{Start: start, Rate: rate, Count: count, Seed: seed}
	g.Reset()
	return g
}

// Next implements Generator.
func (g *poisson) Next() (Arrival, bool) {
	if g.Count > 0 && g.i >= g.Count {
		return Arrival{}, false
	}
	gap := g.rng.ExpFloat64() / g.Rate
	if gap < 1 {
		gap = 1
	}
	g.at = g.at.Add(clock.Duration(math.Round(gap)))
	tup := Tuple{g.i}
	if g.MakeTup != nil {
		tup = g.MakeTup(g.i)
	}
	g.i++
	return Arrival{At: g.at, Tuple: tup}, true
}

// Reset implements Generator.
func (g *poisson) Reset() {
	g.rng = rand.New(rand.NewSource(g.Seed))
	g.i = 0
	g.at = g.Start
}

// --- Bursty on/off generator (Figure 5's workload) ---

// bursty alternates between an "on" phase emitting at a high constant
// rate and a silent "off" phase. This is the bursty arrival process of
// Figure 5, where on-demand averaging sampled at burst peaks reports a
// wrong average rate.
type bursty struct {
	Start       clock.Time
	OnInterval  clock.Duration // inter-arrival gap during bursts
	OnDuration  clock.Duration // length of a burst
	OffDuration clock.Duration // silence between bursts
	Count       int
	MakeTup     func(i int) Tuple

	i  int
	at clock.Time
	on clock.Duration // time spent in the current burst
}

// NewBursty returns an on/off burst generator.
func NewBursty(start clock.Time, onInterval, onDuration, offDuration clock.Duration, count int) *bursty {
	if onInterval <= 0 || onDuration <= 0 || offDuration < 0 {
		panic("stream: invalid bursty parameters")
	}
	g := &bursty{Start: start, OnInterval: onInterval, OnDuration: onDuration, OffDuration: offDuration, Count: count}
	g.Reset()
	return g
}

// MeanRate returns the long-run average element rate.
func (g *bursty) MeanRate() float64 {
	perBurst := float64(g.OnDuration / g.OnInterval)
	cycle := float64(g.OnDuration + g.OffDuration)
	return perBurst / cycle
}

// Next implements Generator.
func (g *bursty) Next() (Arrival, bool) {
	if g.Count > 0 && g.i >= g.Count {
		return Arrival{}, false
	}
	at := g.at
	tup := Tuple{g.i}
	if g.MakeTup != nil {
		tup = g.MakeTup(g.i)
	}
	g.i++
	g.at = g.at.Add(g.OnInterval)
	g.on += g.OnInterval
	if g.on >= g.OnDuration {
		g.at = g.at.Add(g.OffDuration)
		g.on = 0
	}
	return Arrival{At: at, Tuple: tup}, true
}

// Reset implements Generator.
func (g *bursty) Reset() {
	g.i = 0
	g.at = g.Start
	g.on = 0
}

// --- Zipf-valued generator ---

// zipfValues wraps another generator, replacing tuple payloads with
// integer keys drawn from a Zipf distribution. It models skewed value
// distributions for join and group-by workloads.
type zipfValues struct {
	Base Generator
	N    int     // key domain [0, N)
	S    float64 // skew, > 1
	Seed int64

	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewZipfValues returns a generator emitting Zipf-distributed keys at
// the base generator's arrival times.
func NewZipfValues(base Generator, n int, s float64, seed int64) Generator {
	if n <= 0 || s <= 1 {
		panic("stream: zipf requires n > 0 and s > 1")
	}
	g := &zipfValues{Base: base, N: n, S: s, Seed: seed}
	g.Reset()
	return g
}

// Next implements Generator.
func (g *zipfValues) Next() (Arrival, bool) {
	a, ok := g.Base.Next()
	if !ok {
		return Arrival{}, false
	}
	a.Tuple = Tuple{int(g.zipf.Uint64())}
	return a, true
}

// Reset implements Generator.
func (g *zipfValues) Reset() {
	g.Base.Reset()
	g.rng = rand.New(rand.NewSource(g.Seed))
	g.zipf = rand.NewZipf(g.rng, g.S, 1, uint64(g.N-1))
}

// --- Trace: materialized arrival sequence ---

// Trace is a materialized, replayable arrival sequence.
type Trace struct {
	Arrivals []Arrival
	pos      int
}

// Record materializes up to limit arrivals from g (all if limit <= 0
// and the generator is bounded).
func Record(g Generator, limit int) *Trace {
	var t Trace
	for limit <= 0 || len(t.Arrivals) < limit {
		a, ok := g.Next()
		if !ok {
			break
		}
		t.Arrivals = append(t.Arrivals, a)
		if limit <= 0 && len(t.Arrivals) > 10_000_000 {
			panic("stream: unbounded Record on unbounded generator")
		}
	}
	return &t
}

// Next implements Generator.
func (t *Trace) Next() (Arrival, bool) {
	if t.pos >= len(t.Arrivals) {
		return Arrival{}, false
	}
	a := t.Arrivals[t.pos]
	t.pos++
	return a, true
}

// Reset implements Generator.
func (t *Trace) Reset() { t.pos = 0 }

// Len returns the number of arrivals in the trace.
func (t *Trace) Len() int { return len(t.Arrivals) }

// Validate checks that arrivals are in nondecreasing time order.
func (t *Trace) Validate() error {
	for i := 1; i < len(t.Arrivals); i++ {
		if t.Arrivals[i].At < t.Arrivals[i-1].At {
			return fmt.Errorf("stream: trace out of order at index %d: %d < %d",
				i, t.Arrivals[i].At, t.Arrivals[i-1].At)
		}
	}
	return nil
}
