package pipes

import (
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// defineAdaptable registers a triggered source item "src" (refreshed by
// event "w") and a migratable item "hot" = src + 1 on the stream's
// registry, subscribes "hot", and returns the subscription.
func defineAdaptable(t *testing.T, st *Stream) *Subscription {
	t.Helper()
	reg := st.Metadata()
	srcVal := 5.0
	if err := reg.Define(&Definition{
		Kind:   "src",
		Events: []string{"w"},
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return srcVal, nil
			}), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	compute := func(ctx *core.BuildContext) core.ComputeFunc {
		dep := ctx.Dep(0)
		return func(clock.Time) (core.Value, error) {
			f, err := dep.Float()
			if err != nil {
				return nil, err
			}
			return f + 1, nil
		}
	}
	if err := reg.Define(&Definition{
		Kind: "hot",
		Deps: []DepRef{Dep(SelfNode(), "src")},
		Adapt: &AdaptSpec{
			OnDemand:  compute,
			Triggered: compute,
			Periodic: func(ctx *core.BuildContext) core.WindowComputeFunc {
				dep := ctx.Dep(0)
				return func(_, _ clock.Time) (core.Value, error) {
					f, err := dep.Float()
					if err != nil {
						return nil, err
					}
					return f + 1, nil
				}
			},
			Window: 50,
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(compute(ctx)), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	sub, err := st.Subscribe("hot")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Unsubscribe)
	return sub
}

// TestAutotuneClosedLoop drives an autotuned item through a read-heavy
// then a write-heavy phase via the public facade and checks the system
// ticker live-migrates it each time the workload flips.
func TestAutotuneClosedLoop(t *testing.T) {
	sys := NewSystem(WithAdaptiveMaintenance(AdaptConfig{
		Interval: 100, Hysteresis: 0.05, MinDwell: -1,
	}))
	src := sys.Source("s", Schema{Name: "s", Fields: []Field{{Name: "v", Type: "int"}}}, nil, 0)
	sub := defineAdaptable(t, src)
	if err := src.Autotune("hot", 0, 1); err != nil {
		t.Fatal(err)
	}

	// Phase 1: hot reads, no input churn -> triggered.
	for i := 0; i < 200; i++ {
		if v, err := sub.Float(); err != nil || v != 6 {
			t.Fatalf("hot = %v, %v, want 6", v, err)
		}
	}
	sys.Run(100)
	if m, ok := src.Metadata().Mechanism("hot"); !ok || m != TriggeredMechanism {
		t.Fatalf("after read-heavy phase: mechanism = %v, %v, want triggered", m, ok)
	}

	// Phase 2: hot input churn, one verification read -> on-demand.
	for i := 0; i < 300; i++ {
		src.Metadata().FireEvent("w")
	}
	if v, err := sub.Float(); err != nil || v != 6 {
		t.Fatalf("hot = %v, %v, want 6", v, err)
	}
	sys.Run(200)
	if m, ok := src.Metadata().Mechanism("hot"); !ok || m != OnDemandMechanism {
		t.Fatalf("after write-heavy phase: mechanism = %v, %v, want on-demand", m, ok)
	}

	ms := sys.AdaptiveMigrations()
	if len(ms) != 2 || ms[0].To != TriggeredMechanism || ms[1].To != OnDemandMechanism {
		t.Fatalf("AdaptiveMigrations() = %v, want [->triggered, ->ondemand]", ms)
	}
	if got := sys.Env().Stats().Migrations.Load(); got != 2 {
		t.Fatalf("Stats().Migrations = %d, want 2", got)
	}
}

// TestManualMigrate pins by-hand migration through a node's registry.
func TestManualMigrate(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("s", Schema{Name: "s", Fields: []Field{{Name: "v", Type: "int"}}}, nil, 0)
	sub := defineAdaptable(t, src)

	if err := src.Metadata().Migrate("hot", PeriodicMechanism, 0); err != nil {
		t.Fatalf("Migrate(periodic, default window): %v", err)
	}
	if w, ok := src.Metadata().Window("hot"); !ok || w != 50 {
		t.Fatalf("window = %v, %v, want AdaptSpec default 50", w, ok)
	}
	sys.Run(60) // one periodic refresh
	if v, err := sub.Float(); err != nil || v != 6 {
		t.Fatalf("hot = %v, %v, want 6", v, err)
	}
	// Items without an AdaptSpec stay pinned.
	if err := src.Metadata().Migrate("src", OnDemandMechanism, 0); !errors.Is(err, ErrNotMigratable) {
		t.Fatalf("Migrate(src) = %v, want ErrNotMigratable", err)
	}
}

// TestAutotuneRequiresOption pins the arming error.
func TestAutotuneRequiresOption(t *testing.T) {
	sys := NewSystem()
	src := sys.Source("s", Schema{Name: "s", Fields: []Field{{Name: "v", Type: "int"}}}, nil, 0)
	defineAdaptable(t, src)
	if err := src.Autotune("hot", 0, 0); err == nil {
		t.Fatal("Autotune without WithAdaptiveMaintenance succeeded")
	}
}
