package pipes

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// buildPipeline constructs the identical small graph both lives of the
// durability tests run: source -> filter -> sink.
func buildPipeline(sys *System) *Stream {
	src := sys.Source("src", intSchema, NewConstantRate(0, 5, 0), 0)
	f := src.Filter("f", func(Tuple) bool { return true })
	f.Sink("out", nil)
	return f
}

func TestDurabilityRestartServesStaleThenRecovers(t *testing.T) {
	dir := t.TempDir()

	// ---- First life. ----
	sys1 := NewSystem(WithStatWindow(50), WithDurability(dir, DurabilityOptions{}))
	f1 := buildPipeline(sys1)
	rs1, err := sys1.OpenDurability()
	if err != nil {
		t.Fatalf("OpenDurability: %v", err)
	}
	if rs1.Recovered {
		t.Fatal("fresh dir reported recovered")
	}
	rate, err := f1.Subscribe(KindInputRate)
	if err != nil {
		t.Fatal(err)
	}
	sys1.Run(500)
	want, err := rate.Float()
	if err != nil || want != 0.2 {
		t.Fatalf("pre-crash inputRate = %v, %v; want 0.2", want, err)
	}
	ver1, _ := f1.Metadata().ItemVersion(KindInputRate)
	if err := sys1.plane.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	sys1.Close() // the process dies here: no final checkpoint

	// ---- Second life: same graph, fresh system, recover. ----
	sys2 := NewSystem(WithStatWindow(50), WithDurability(dir, DurabilityOptions{}))
	f2 := buildPipeline(sys2)
	rs2, err := sys2.OpenDurability()
	if err != nil {
		t.Fatalf("recovery OpenDurability: %v", err)
	}
	defer sys2.Shutdown(context.Background())
	if !rs2.Recovered || rs2.Subscribed != 1 || rs2.Restored < 1 {
		t.Fatalf("recovery stats = %+v, want 1 subscription and >= 1 restored item", rs2)
	}
	// The recovered subscription re-pinned the item; the first read
	// serves the pre-crash value tagged stale, without any recompute.
	v, err := f2.Metadata().Peek(KindInputRate)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("recovered read = (%v, %v), want ErrStale-tagged", v, err)
	}
	if v != want {
		t.Fatalf("recovered value = %v, want pre-crash %v", v, want)
	}
	if ver2, _ := f2.Metadata().ItemVersion(KindInputRate); ver2 <= ver1 {
		t.Fatalf("recovered version %d not above persisted %d", ver2, ver1)
	}
	// The clock resumed at (not before) the pre-crash instant.
	if sys2.Now() < 500 {
		t.Fatalf("recovered clock at %d, want >= 500", sys2.Now())
	}

	// Warm phase: run on; the probe machinery recomputes and the stream
	// keeps flowing, so reads go fresh again.
	sys2.Run(sys2.Now() + Time(10*DefaultBreakerPolicy.MaxProbeBackoff))
	v, err = f2.Metadata().Peek(KindInputRate)
	if err != nil {
		t.Fatalf("post-warm read: %v", err)
	}
	if _, ok := v.(float64); !ok {
		t.Fatalf("post-warm value %v (%T)", v, v)
	}
	if hs, ok := f2.Metadata().Health(KindInputRate); !ok || hs.State != core.Healthy {
		t.Fatalf("post-warm health = %+v", hs)
	}
}

func TestDurabilityGracefulRestartCycle(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		sys := NewSystem(WithDurability(dir, DurabilityOptions{CheckpointEvery: -1}))
		f := buildPipeline(sys)
		rs, err := sys.OpenDurability()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if i == 0 {
			if _, err := f.Subscribe(KindSelectivity); err != nil {
				t.Fatal(err)
			}
		} else if rs.Subscribed != 1 {
			t.Fatalf("cycle %d: Subscribed = %d, want stable 1", i, rs.Subscribed)
		}
		if !f.Metadata().IsIncluded(KindSelectivity) {
			t.Fatalf("cycle %d: selectivity not included", i)
		}
		if err := sys.Shutdown(context.Background()); err != nil {
			t.Fatalf("cycle %d shutdown: %v", i, err)
		}
	}
}

func TestDurabilityNotConfigured(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.OpenDurability(); err == nil {
		t.Fatal("OpenDurability without WithDurability did not error")
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown without durability returned %v", err)
	}
}
