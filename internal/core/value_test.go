package core

import (
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

func TestFloatConversions(t *testing.T) {
	cases := []struct {
		in   Value
		want float64
	}{
		{float64(1.5), 1.5},
		{float32(2), 2},
		{int(3), 3},
		{int8(-8), -8},
		{int16(-300), -300},
		{int32(4), 4},
		{int64(5), 5},
		{uint(6), 6},
		{uint8(200), 200},
		{uint16(60000), 60000},
		{uint32(4000000000), 4000000000},
		{uint64(7), 7},
	}
	for _, c := range cases {
		got, err := Float(c.in)
		if err != nil || got != c.want {
			t.Errorf("Float(%T %v) = %v, %v", c.in, c.in, got, err)
		}
	}
}

func TestFloatErrors(t *testing.T) {
	if _, err := Float(nil); !errors.Is(err, errNoValue) {
		t.Fatalf("Float(nil) err = %v, want errNoValue", err)
	}
	if _, err := Float("str"); !errors.Is(err, errNotNumeric) {
		t.Fatalf("Float(string) err = %v, want errNotNumeric", err)
	}
}

func TestMustFloatPanicsOnNonNumeric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFloat did not panic")
		}
	}()
	MustFloat("nope")
}

func TestMustFloatOK(t *testing.T) {
	if got := MustFloat(2.5); got != 2.5 {
		t.Fatalf("MustFloat = %v", got)
	}
}

func TestStatsSnapshotSub(t *testing.T) {
	var s Stats
	s.HandlersCreated.Add(5)
	s.PeriodicUpdates.Add(3)
	s.OnDemandComputes.Add(2)
	s.TriggeredUpdates.Add(1)
	s.MemoHits.Add(6)
	s.MemoMisses.Add(2)
	s.CoalescedReads.Add(1)
	a := s.Snapshot()
	s.HandlersCreated.Add(1)
	s.PeriodicUpdates.Add(4)
	s.MemoHits.Add(9)
	s.MemoMisses.Add(1)
	s.CoalescedReads.Add(3)
	b := s.Snapshot()
	d := b.Sub(a)
	if d.HandlersCreated != 1 || d.PeriodicUpdates != 4 {
		t.Fatalf("Sub = %+v", d)
	}
	if d.MemoHits != 9 || d.MemoMisses != 1 || d.CoalescedReads != 3 {
		t.Fatalf("memo counters Sub = hits %d misses %d coalesced %d, want 9/1/3",
			d.MemoHits, d.MemoMisses, d.CoalescedReads)
	}
	if got := b.UpdateWork(); got != 3+4+2+1 {
		t.Fatalf("UpdateWork = %d, want 10", got)
	}
}

// TestStatsMatchesSnapshot pins what Snapshot's field walk relies on:
// Stats and Snapshot list the same names in the same order, every Stats
// field is a counter or a level, and every Snapshot field an int64.
func TestStatsMatchesSnapshot(t *testing.T) {
	st, sn := reflect.TypeFor[Stats](), reflect.TypeFor[Snapshot]()
	if st.NumField() != sn.NumField() {
		t.Fatalf("Stats has %d fields, Snapshot %d", st.NumField(), sn.NumField())
	}
	kinds := []reflect.Type{reflect.TypeFor[atomic.Int64](), reflect.TypeFor[shardedCounter](), reflect.TypeFor[level]()}
	for i := range st.NumField() {
		f, g := st.Field(i), sn.Field(i)
		if f.Name != g.Name {
			t.Errorf("field %d: Stats.%s, Snapshot.%s", i, f.Name, g.Name)
		}
		if !slices.Contains(kinds, f.Type) {
			t.Errorf("Stats.%s is a %v, want atomic.Int64, shardedCounter or level", f.Name, f.Type)
		}
		if g.Type.Kind() != reflect.Int64 {
			t.Errorf("Snapshot.%s is a %v, want int64", g.Name, g.Type)
		}
	}
}

// TestSnapshotSubEveryField loads a distinct value into every Stats
// field and checks, field by field, that Snapshot copies it and that Sub
// differences exactly the counters and keeps exactly the six Levels.
func TestSnapshotSubEveryField(t *testing.T) {
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	add := func(base int64) {
		for i := range sv.NumField() {
			switch c := sv.Field(i).Addr().Interface().(type) {
			case *shardedCounter:
				c.Add(base + int64(i))
			case interface{ Add(int64) int64 }:
				c.Add(base + int64(i))
			}
		}
	}
	add(1000)
	a := s.Snapshot()
	add(100) // every field now holds 1100 + 2i
	b := s.Snapshot()
	d := b.Sub(a)
	av, bv, dv := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(d)
	var levels []string
	for i := range sv.NumField() {
		name := sv.Type().Field(i).Name
		if got := av.Field(i).Int(); got != 1000+int64(i) {
			t.Errorf("Snapshot.%s = %d, want %d", name, got, 1000+i)
		}
		want := bv.Field(i).Int() - av.Field(i).Int()
		if sv.Field(i).Type() == reflect.TypeFor[level]() {
			levels = append(levels, name)
			want = bv.Field(i).Int()
		}
		if got := dv.Field(i).Int(); got != want {
			t.Errorf("Sub.%s = %d, want %d", name, got, want)
		}
	}
	wantLevels := []string{"QueueDepth", "QueueHighWater", "Watchers", "MuxSessions", "WALBytes", "CheckpointAt"}
	if !slices.Equal(levels, wantLevels) {
		t.Fatalf("Levels = %v, want %v", levels, wantLevels)
	}
	if counters := sv.NumField() - len(levels); counters != 39 {
		t.Fatalf("%d counters, want 39", counters)
	}
}

// TestSnapshotSubAllocs pins that a window measurement — two Snapshots
// and a Sub — allocates nothing.
func TestSnapshotSubAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	s := new(Stats)
	s.MemoHits.Add(3)
	var d Snapshot
	allocs := testing.AllocsPerRun(100, func() {
		before := s.Snapshot()
		s.Watchers.Add(1)
		d = s.Snapshot().Sub(before)
	})
	if allocs != 0 || d.MemoHits != 0 || d.Watchers != 101 {
		t.Fatalf("Snapshot+Snapshot+Sub: %.0f allocs, MemoHits %d, Watchers %d; want 0, 0, 101", allocs, d.MemoHits, d.Watchers)
	}
}

func TestMemoHitRate(t *testing.T) {
	if got := (Snapshot{}).MemoHitRate(); got != 0 {
		t.Fatalf("MemoHitRate with no reads = %v, want 0", got)
	}
	s := Snapshot{MemoHits: 3, MemoMisses: 1}
	if got := s.MemoHitRate(); got != 0.75 {
		t.Fatalf("MemoHitRate = %v, want 0.75", got)
	}
}
