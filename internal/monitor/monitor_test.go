package monitor

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/persist"
	"repro/internal/stream"
	"repro/internal/watch"
)

var intSchema = stream.Schema{Name: "ints", Fields: []stream.Field{{Name: "v", Type: "int"}}}

func testSetup() (*core.Env, *clock.Virtual, *core.Registry) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	r := env.NewRegistry("n")
	r.MustDefine(&core.Definition{
		Kind: "clockValue",
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(now clock.Time) (core.Value, error) {
				return float64(now), nil
			}), nil
		},
	})
	return env, vc, r
}

func TestRecorderSamplesPeriodically(t *testing.T) {
	env, vc, r := testSetup()
	rec := NewRecorder(env, 10)
	defer rec.Close()
	if err := rec.Track("cv", r, "clockValue"); err != nil {
		t.Fatal(err)
	}
	vc.Advance(35)
	s := rec.Series("cv")
	if len(s.Samples) != 3 {
		t.Fatalf("recorded %d samples, want 3", len(s.Samples))
	}
	if s.Samples[0].Value != 10 || s.Samples[2].Value != 30 {
		t.Fatalf("samples = %v", s.Samples)
	}
	if s.Last().Value != 30 {
		t.Fatalf("Last = %v", s.Last())
	}
	if s.Mean() != 20 {
		t.Fatalf("Mean = %v, want 20", s.Mean())
	}
	if s.Max() != 30 {
		t.Fatalf("Max = %v, want 30", s.Max())
	}
}

func TestRecorderTrackSubscribes(t *testing.T) {
	env, _, r := testSetup()
	rec := NewRecorder(env, 10)
	rec.Track("cv", r, "clockValue")
	if !r.IsIncluded("clockValue") {
		t.Fatal("Track did not subscribe")
	}
	rec.Close()
	if r.IsIncluded("clockValue") {
		t.Fatal("Close did not unsubscribe")
	}
}

func TestRecorderRejectsDuplicatesAndUnknown(t *testing.T) {
	env, _, r := testSetup()
	rec := NewRecorder(env, 10)
	defer rec.Close()
	if err := rec.Track("cv", r, "clockValue"); err != nil {
		t.Fatal(err)
	}
	if err := rec.Track("cv", r, "clockValue"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := rec.Track("x", r, "missing"); err == nil {
		t.Fatal("unknown item accepted")
	}
	if got := rec.Names(); len(got) != 1 || got[0] != "cv" {
		t.Fatalf("Names = %v", got)
	}
}

func TestRecorderCSV(t *testing.T) {
	env, vc, r := testSetup()
	rec := NewRecorder(env, 10)
	defer rec.Close()
	rec.Track("cv", r, "clockValue")
	vc.Advance(20)
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3:\n%s", len(lines), b.String())
	}
	if lines[0] != "time,cv" || lines[1] != "10,10" {
		t.Fatalf("CSV content wrong:\n%s", b.String())
	}
}

func TestEmptySeriesStats(t *testing.T) {
	s := &series{Name: "e"}
	if s.Mean() != 0 || s.Max() != 0 || s.Last().At != 0 {
		t.Fatal("empty series stats should be zero")
	}
}

func TestInventoryReportsIncludedItems(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	f := ops.NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 0)
	sub, _ := f.Registry().Subscribe(ops.KindInputRate)
	defer sub.Unsubscribe()

	inv := Inventory(g)
	if len(inv) != 1 {
		t.Fatalf("inventory over %d nodes, want 1", len(inv))
	}
	ni := inv[0]
	if len(ni.Available) == 0 {
		t.Fatal("no available items reported")
	}
	found := false
	for _, k := range ni.Included {
		if k == ops.KindInputRate {
			found = true
		}
	}
	if !found {
		t.Fatalf("included items %v missing inputRate", ni.Included)
	}
	out := FormatInventory(inv)
	if !strings.Contains(out, "inputRate") || !strings.Contains(out, "operator") {
		t.Fatalf("formatted inventory missing content:\n%s", out)
	}
}

// TestProfilerMeasuresUpdateWork profiles framework activity the way
// internal/bench does: the difference of two stats snapshots.
func TestProfilerMeasuresUpdateWork(t *testing.T) {
	env, vc, _ := testSetup()
	r2 := env.NewRegistry("p")
	r2.MustDefine(&core.Definition{
		Kind: "tick",
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewPeriodic(10, func(a, b clock.Time) (core.Value, error) { return 1.0, nil }), nil
		},
	})
	sub, _ := r2.Subscribe("tick")
	defer sub.Unsubscribe()

	start := env.Stats().Snapshot()
	vc.Advance(100)
	win := env.Stats().Snapshot().Sub(start)
	if win.PeriodicUpdates != 10 {
		t.Fatalf("PeriodicUpdates = %d, want 10", win.PeriodicUpdates)
	}
	if got := win.UpdateWork(); got != 10 {
		t.Fatalf("UpdateWork = %d, want 10", got)
	}
	start = env.Stats().Snapshot()
	if got := env.Stats().Snapshot().Sub(start).PeriodicUpdates; got != 0 {
		t.Fatalf("fresh window: %d updates, want 0", got)
	}
}

func TestOverheadProfileHealth(t *testing.T) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc, core.WithBreaker(core.BreakerPolicy{
		FailureThreshold: 2,
		FailureWindow:    1000,
		ProbeBackoff:     5,
		MaxProbeBackoff:  40,
	}))
	r := env.NewRegistry("p")
	fail := false
	r.MustDefine(&core.Definition{
		Kind: "flaky",
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewPeriodic(10, func(a, b clock.Time) (core.Value, error) {
				if fail {
					panic("injected")
				}
				return 7.0, nil
			}), nil
		},
	})
	sub, err := r.Subscribe("flaky")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	start := env.Stats().Snapshot()
	fail = true
	vc.Advance(20) // two panicking boundaries: degraded at 10, tripped at 20
	win := env.Stats().Snapshot().Sub(start)
	if win.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", win.BreakerTrips)
	}
	line := statLine(t, win, "degraded ops")
	for _, want := range []string{"trips=1", "timeouts=0", "recoveries=0", "shedTicks=0"} {
		if !strings.Contains(line, want) {
			t.Fatalf("degraded ops line = %q, missing %q", line, want)
		}
	}

	// Recovery: heal and let the probe (armed at t=25) close the
	// breaker; a fresh window shows the recovery, not the old trip.
	start = env.Stats().Snapshot()
	fail = false
	vc.Advance(5)
	win = env.Stats().Snapshot().Sub(start)
	if win.BreakerTrips != 0 || win.BreakerRecoveries != 1 {
		t.Fatalf("after recovery: trips=%d recoveries=%d, want 0/1",
			win.BreakerTrips, win.BreakerRecoveries)
	}
	if line := statLine(t, win, "degraded ops"); !strings.Contains(line, "recoveries=1") {
		t.Fatalf("degraded ops line = %q, missing recoveries=1", line)
	}
}

func TestOverheadProfileAdaptive(t *testing.T) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	r := env.NewRegistry("p")
	compute := func(*core.BuildContext) core.ComputeFunc {
		return func(clock.Time) (core.Value, error) { return 7.0, nil }
	}
	r.MustDefine(&core.Definition{
		Kind: "adaptable",
		Adapt: &core.AdaptSpec{
			OnDemand:  compute,
			Triggered: compute,
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(compute(ctx)), nil
		},
	})
	sub, err := r.Subscribe("adaptable")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	start := env.Stats().Snapshot()
	if err := r.Migrate("adaptable", core.TriggeredMechanism, 0); err != nil {
		t.Fatal(err)
	}
	win := env.Stats().Snapshot().Sub(start)
	if win.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", win.Migrations)
	}
	line := statLine(t, win, "adaptive")
	for _, want := range []string{"migrations=1", "handlersCreated=1", "handlersRemoved=1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("adaptive line = %q, missing %q", line, want)
		}
	}
}

func TestOverheadProfileWatch(t *testing.T) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	r := env.NewRegistry("p")
	r.MustDefine(&core.Definition{
		Kind: "item",
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) { return 7.0, nil }), nil
		},
	})

	start := env.Stats().Snapshot()
	h := watch.NewHub(env)
	defer h.Close()
	w, err := h.Watch(r, "item", watch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r.NotifyChanged("item")
	h.Barrier()
	win := env.Stats().Snapshot().Sub(start)
	if win.Watchers != 1 || win.CatchUps != 1 {
		t.Fatalf("Watchers=%d CatchUps=%d, want 1/1", win.Watchers, win.CatchUps)
	}
	line := statLine(t, win, "watch hub")
	for _, want := range []string{"watchers=1", "catchUps=1", "wakeups=", "coalescedWakeups=", "shedNotifies=0"} {
		if !strings.Contains(line, want) {
			t.Fatalf("watch hub line = %q, missing %q", line, want)
		}
	}
}

func TestOverheadProfilePipeline(t *testing.T) {
	env, vc, _ := testSetup()
	r2 := env.NewRegistry("p")
	for _, kind := range []core.Kind{"tickA", "tickB"} {
		kind := kind
		r2.MustDefine(&core.Definition{
			Kind: kind,
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewPeriodic(10, func(a, b clock.Time) (core.Value, error) { return 1.0, nil }), nil
			},
		})
	}
	subA, _ := r2.Subscribe("tickA")
	defer subA.Unsubscribe()
	subB, _ := r2.Subscribe("tickB")
	defer subB.Unsubscribe()

	start := env.Stats().Snapshot()
	vc.Advance(100)
	win := env.Stats().Snapshot().Sub(start)
	// Two same-boundary handlers in one scope: one batch of two ticks
	// per boundary.
	if win.ScopeBatches != 10 || win.BatchedTicks != 20 {
		t.Fatalf("ScopeBatches=%d BatchedTicks=%d, want 10/20", win.ScopeBatches, win.BatchedTicks)
	}
	if got := win.MeanBatchSize(); got != 2 {
		t.Fatalf("MeanBatchSize = %v, want 2", got)
	}
	line := statLine(t, win, "update pipeline")
	for _, want := range []string{"scopeBatches=10", "batchedTicks=20", "meanBatch=2.0"} {
		if !strings.Contains(line, want) {
			t.Fatalf("update pipeline line = %q, missing %q", line, want)
		}
	}
}

func TestOverheadProfileDurability(t *testing.T) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	start := env.Stats().Snapshot()

	// Simulate durable-plane activity the way persist reports it.
	st := env.Stats()
	st.WALRecords.Add(3)
	st.WALBytes.Store(120)
	st.Checkpoints.Add(1)
	vc.Advance(50)
	st.CheckpointAt.Store(int64(env.Now()) - 10)
	st.Recoveries.Add(1)
	st.RestoredStale.Add(2)

	line := statLine(t, env.Stats().Snapshot().Sub(start), "durability")
	for _, want := range []string{
		"walRecords=3", "walBytes=120", "checkpoints=1",
		"checkpointAt=40", "recoveries=1", "restoredStale=2",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("durability line = %q, missing %q", line, want)
		}
	}

	// A durable plane opened at instant 0 has checkpointed (Open's
	// barrier) although CheckpointAt still reads 0.
	fresh := core.NewEnv(clock.NewVirtual())
	plane, _, err := persist.Open(fresh, t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	line = statLine(t, fresh.Stats().Snapshot(), "durability")
	for _, want := range []string{"checkpoints=1", "checkpointAt=0"} {
		if !strings.Contains(line, want) {
			t.Fatalf("durability line at t=0 = %q, missing %q", line, want)
		}
	}
}

// statLine renders s and returns the report's line for group.
func statLine(t *testing.T, s core.Snapshot, group string) string {
	t.Helper()
	var b strings.Builder
	if err := WriteStats(&b, s); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, group+": ") {
			return line
		}
	}
	t.Fatalf("report has no %q line:\n%s", group, b.String())
	return ""
}

// TestWriteStatsRendersEveryField gives every Snapshot field a distinct
// value and checks the report prints each value exactly once: no
// counter is silently missing, none is printed twice.
func TestWriteStatsRendersEveryField(t *testing.T) {
	var s core.Snapshot
	v := reflect.ValueOf(&s).Elem()
	for i := range v.NumField() {
		v.Field(i).SetInt(int64(1000 + i))
	}
	var b strings.Builder
	if err := WriteStats(&b, s); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, tok := range strings.Fields(b.String()) {
		if _, val, ok := strings.Cut(tok, "="); ok {
			seen[val]++
		}
	}
	for i := range v.NumField() {
		if n := seen[strconv.Itoa(1000+i)]; n != 1 {
			t.Errorf("%s=%d printed %d times, want once:\n%s", v.Type().Field(i).Name, 1000+i, n, b.String())
		}
	}
}
