package ops

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/clock"
	"repro/internal/stream"
)

// eqPred joins tuples with equal first fields.
func eqPred(l, r stream.Tuple) bool { return l[0] == r[0] }

// windowed returns an element with validity [ts, ts+w).
func windowed(v int, ts clock.Time, w clock.Duration) stream.Element {
	return stream.Element{Tuple: stream.Tuple{v}, TS: ts, End: ts.Add(w)}
}

func TestJoinMatchesOverlappingEquals(t *testing.T) {
	g, _ := newTestGraph()
	j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0)
	// Left 7 at [0,100); right 7 at [50,150): overlap, equal -> match.
	out := j.Process(windowed(7, 0, 100), 0)
	if len(out) != 0 {
		t.Fatalf("empty right side produced output: %v", out)
	}
	out = j.Process(windowed(7, 50, 100), 1)
	if len(out) != 1 {
		t.Fatalf("join produced %d results, want 1", len(out))
	}
	r := out[0]
	if r.Tuple[0] != 7 || r.Tuple[1] != 7 {
		t.Fatalf("joined tuple = %v, want (7, 7)", r.Tuple)
	}
	if r.TS != 50 || r.End != 100 {
		t.Fatalf("result validity = [%d,%d), want [50,100) (intersection)", r.TS, r.End)
	}
}

func TestJoinRespectsPredicate(t *testing.T) {
	g, _ := newTestGraph()
	j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0)
	j.Process(windowed(1, 0, 100), 0)
	out := j.Process(windowed(2, 10, 100), 1)
	if len(out) != 0 {
		t.Fatalf("join matched unequal keys: %v", out)
	}
}

func TestJoinRespectsTime(t *testing.T) {
	g, _ := newTestGraph()
	j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0)
	j.Process(windowed(1, 0, 10), 0) // valid [0,10)
	out := j.Process(windowed(1, 10, 10), 1)
	if len(out) != 0 {
		t.Fatalf("join matched non-overlapping validities: %v", out)
	}
}

func TestJoinPurgesExpiredState(t *testing.T) {
	g, _ := newTestGraph()
	j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0)
	for i := 0; i < 10; i++ {
		j.Process(windowed(i, clock.Time(i), 10), 0)
	}
	if got := j.Area(0).Size(); got != 10 {
		t.Fatalf("left area size = %d, want 10", got)
	}
	// An element far in the future expires everything on both sides.
	j.Process(windowed(99, 1000, 10), 1)
	if got := j.Area(0).Size(); got != 0 {
		t.Fatalf("left area size = %d after purge, want 0", got)
	}
	if got := j.Area(1).Size(); got != 1 {
		t.Fatalf("right area size = %d, want 1", got)
	}
}

func TestJoinTupleOrderFromRightPort(t *testing.T) {
	g, _ := newTestGraph()
	ls := stream.Schema{Name: "L", Fields: []stream.Field{{Name: "k", Type: "int"}, {Name: "l", Type: "string"}}}
	rs := stream.Schema{Name: "R", Fields: []stream.Field{{Name: "k", Type: "int"}, {Name: "r", Type: "string"}}}
	j := NewJoin(g, "j", ls, rs, eqPred, 0)
	j.Process(stream.Element{Tuple: stream.Tuple{1, "left"}, TS: 0, End: 100}, 0)
	out := j.Process(stream.Element{Tuple: stream.Tuple{1, "right"}, TS: 0, End: 100}, 1)
	if len(out) != 1 {
		t.Fatal("no result")
	}
	// Left fields must come first regardless of arrival port.
	if out[0].Tuple[1] != "left" || out[0].Tuple[3] != "right" {
		t.Fatalf("tuple order wrong: %v", out[0].Tuple)
	}
}

func TestJoinMemUsageAggregatesModules(t *testing.T) {
	g, _ := newTestGraph()
	j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0)
	sub, err := j.Registry().Subscribe(KindMemUsage)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	// Module items were auto-included (Section 4.5).
	if !j.Area(0).Registry().IsIncluded(KindMemUsage) {
		t.Fatal("module memUsage not auto-included")
	}
	j.Process(windowed(1, 0, 100), 0)
	j.Process(windowed(2, 0, 100), 0)
	j.Process(windowed(3, 0, 100), 1)
	want := float64(3 * intSchema.ElementSize())
	if v, _ := sub.Float(); v != want {
		t.Fatalf("memUsage = %v, want %v", v, want)
	}
	ss, _ := j.Registry().Subscribe(KindStateSize)
	defer ss.Unsubscribe()
	if v, _ := ss.Float(); v != 3 {
		t.Fatalf("stateSize = %v, want 3", v)
	}
}

func TestJoinHashAreasSameResultsAsList(t *testing.T) {
	runJoin := func(opt JoinOption) []string {
		g, _ := newTestGraph()
		j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0, opt)
		rng := rand.New(rand.NewSource(7))
		var results []string
		for i := 0; i < 400; i++ {
			port := rng.Intn(2)
			e := windowed(rng.Intn(10), clock.Time(i), 50)
			for _, o := range j.Process(e, port) {
				results = append(results, fmt.Sprintf("%v@%d-%d", o.Tuple, o.TS, o.End))
			}
		}
		sort.Strings(results)
		return results
	}
	list := runJoin(WithListAreas())
	hash := runJoin(WithHashAreas(
		func(tp stream.Tuple) any { return tp[0] },
		func(tp stream.Tuple) any { return tp[0] },
	))
	if len(list) == 0 {
		t.Fatal("workload produced no join results")
	}
	if len(list) != len(hash) {
		t.Fatalf("list join %d results, hash join %d", len(list), len(hash))
	}
	for i := range list {
		if list[i] != hash[i] {
			t.Fatalf("results diverge at %d: %s vs %s", i, list[i], hash[i])
		}
	}
}

func TestJoinHashCheaperThanList(t *testing.T) {
	drive := func(opt JoinOption) float64 {
		g, vc := newTestGraph()
		j := NewJoin(g, "j", intSchema, intSchema, eqPred, 1000, opt)
		sub, _ := j.Registry().Subscribe(KindMeasuredCPU)
		defer sub.Unsubscribe()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			i := i
			vc.Schedule(clock.Time(i), func(now clock.Time) {
				j.Process(windowed(rng.Intn(50), now, 200), i%2)
			})
		}
		vc.Advance(1000)
		v, _ := sub.Float()
		return v
	}
	list := drive(WithListAreas())
	hash := drive(WithHashAreas(
		func(tp stream.Tuple) any { return tp[0] },
		func(tp stream.Tuple) any { return tp[0] },
	))
	if hash >= list {
		t.Fatalf("hash join CPU %v not cheaper than list join %v", hash, list)
	}
}

func TestJoinImplTypeFollowsModule(t *testing.T) {
	g, _ := newTestGraph()
	j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0, WithHashAreas(
		func(tp stream.Tuple) any { return tp[0] },
		func(tp stream.Tuple) any { return tp[0] },
	))
	sub, err := j.Area(0).Registry().Subscribe(KindImplType)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if v, _ := sub.Value(); v != "hash" {
		t.Fatalf("module implType = %v, want hash", v)
	}
}

func TestJoinPredicateCostMetadata(t *testing.T) {
	g, _ := newTestGraph()
	j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0, WithPredicateCost(7))
	sub, _ := j.Registry().Subscribe(KindPredicateCost)
	defer sub.Unsubscribe()
	if v, _ := sub.Float(); v != 7 {
		t.Fatalf("predicateCost = %v, want 7", v)
	}
}

// referenceJoin recomputes all join results of a two-sided trace by
// brute force over every pair.
func referenceJoin(left, right []stream.Element, pred func(left, right stream.Tuple) bool) int {
	n := 0
	for _, l := range left {
		for _, r := range right {
			if l.Overlaps(r) && pred(l.Tuple, r.Tuple) {
				n++
			}
		}
	}
	return n
}

// TestPropertyJoinEqualsReference: the streaming join over interleaved
// inputs produces exactly the pairs a brute-force join over the full
// traces produces, for random workloads. Arrival order must follow
// timestamps (stream order).
func TestPropertyJoinEqualsReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _ := newTestGraph()
		j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0)
		var left, right []stream.Element
		got := 0
		ts := clock.Time(0)
		for i := 0; i < 200; i++ {
			ts += clock.Time(rng.Intn(5))
			w := clock.Duration(rng.Intn(40) + 1)
			e := windowed(rng.Intn(8), ts, w)
			port := rng.Intn(2)
			if port == 0 {
				left = append(left, e)
			} else {
				right = append(right, e)
			}
			got += len(j.Process(e, port))
		}
		want := referenceJoin(left, right, eqPred)
		if got != want {
			t.Fatalf("seed %d: streaming join found %d pairs, reference %d", seed, got, want)
		}
	}
}

// TestPropertyHashJoinEqualsReference repeats the reference check for
// the hash sweep areas.
func TestPropertyHashJoinEqualsReference(t *testing.T) {
	for seed := int64(20); seed < 35; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _ := newTestGraph()
		j := NewJoin(g, "j", intSchema, intSchema, eqPred, 0, WithHashAreas(
			func(tp stream.Tuple) any { return tp[0] },
			func(tp stream.Tuple) any { return tp[0] },
		))
		var left, right []stream.Element
		got := 0
		ts := clock.Time(0)
		for i := 0; i < 200; i++ {
			ts += clock.Time(rng.Intn(5))
			e := windowed(rng.Intn(8), ts, clock.Duration(rng.Intn(40)+1))
			port := rng.Intn(2)
			if port == 0 {
				left = append(left, e)
			} else {
				right = append(right, e)
			}
			got += len(j.Process(e, port))
		}
		if want := referenceJoin(left, right, eqPred); got != want {
			t.Fatalf("seed %d: hash join found %d pairs, reference %d", seed, got, want)
		}
	}
}

func TestSweepAreaPurgeBoundary(t *testing.T) {
	g, _ := newTestGraph()
	env := g.Env()
	for name, sa := range map[string]sweepArea{
		"list": newListSweepArea(env, "l", 32),
		"hash": newHashSweepArea(env, "h", 32, func(tp stream.Tuple) any { return tp[0] }),
	} {
		sa.Insert(windowed(1, 0, 10)) // valid [0,10)
		sa.Insert(windowed(2, 0, 11)) // valid [0,11)
		if got := sa.PurgeBefore(10); got != 1 {
			t.Fatalf("%s: purged %d, want 1 (End == t expires)", name, got)
		}
		if sa.Size() != 1 {
			t.Fatalf("%s: size = %d, want 1", name, sa.Size())
		}
	}
}

func TestHashSweepAreaMemIncludesBuckets(t *testing.T) {
	g, _ := newTestGraph()
	sa := newHashSweepArea(g.Env(), "h", 32, func(tp stream.Tuple) any { return tp[0] })
	if sa.MemBytes() != 0 {
		t.Fatal("empty area has nonzero memory")
	}
	sa.Insert(windowed(1, 0, 10))
	sa.Insert(windowed(2, 0, 10))
	if got := sa.MemBytes(); got != 2*32+2*48 {
		t.Fatalf("MemBytes = %d, want %d", got, 2*32+2*48)
	}
}
