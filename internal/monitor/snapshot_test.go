package monitor

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/stream"
)

func TestSnapshotCapturesIncludedItems(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	f := ops.NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 50)
	sub, _ := f.Registry().Subscribe(ops.KindAvgInputRate)
	defer sub.Unsubscribe()
	implSub, _ := f.Registry().Subscribe(ops.KindImplType)
	defer implSub.Unsubscribe()

	snaps := snapshot(g)
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1 (only the filter has items)", len(snaps))
	}
	ns := snaps[0]
	if ns.Type != "operator" {
		t.Fatalf("type = %s", ns.Type)
	}
	kinds := map[string]itemSnapshot{}
	for _, it := range ns.Items {
		kinds[it.Kind] = it
	}
	// avgInputRate plus its auto-included dependency inputRate, plus
	// implType.
	if len(kinds) != 3 {
		t.Fatalf("items = %v, want 3", kinds)
	}
	if kinds["avgInputRate"].Mechanism != "triggered" {
		t.Fatalf("avgInputRate mechanism = %s", kinds["avgInputRate"].Mechanism)
	}
	if kinds["implType"].Value != "filter" {
		t.Fatalf("implType value = %v", kinds["implType"].Value)
	}
	// Snapshot's temporary subscriptions must not change refcounts.
	if got := f.Registry().Refs(ops.KindAvgInputRate); got != 1 {
		t.Fatalf("Refs changed by snapshot: %d", got)
	}
}

func TestSnapshotIncludesModules(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	j := ops.NewJoin(g, "join", intSchema, intSchema,
		func(l, r stream.Tuple) bool { return true }, 0)
	sub, _ := j.Registry().Subscribe(ops.KindMemUsage)
	defer sub.Unsubscribe()
	snaps := snapshot(g)
	var moduleSeen bool
	for _, ns := range snaps {
		if ns.Type == "module" {
			moduleSeen = true
		}
	}
	if !moduleSeen {
		t.Fatal("module registries missing from snapshot")
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	f := ops.NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 50)
	sub, _ := f.Registry().Subscribe(ops.KindCountIn)
	defer sub.Unsubscribe()
	raw, err := SnapshotJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "countIn") {
		t.Fatalf("JSON missing item:\n%s", raw)
	}
	var decoded []nodeSnapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
}

func TestSnapshotReportsQuarantine(t *testing.T) {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc, core.WithBreaker(core.BreakerPolicy{
		FailureThreshold: 2,
		FailureWindow:    1000,
		ProbeBackoff:     5,
		MaxProbeBackoff:  40,
	}))
	g := graph.New(env)
	f := ops.NewFilter(g, "f", intSchema, func(stream.Tuple) bool { return true }, 0)
	fail := false
	f.Registry().MustDefine(&core.Definition{
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
	sub, err := f.Registry().Subscribe("flaky")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	fail = true
	vc.Advance(20) // two panicking boundaries trip the breaker at t=20
	vc.Advance(3)  // stale age grows while quarantined (probe due at 25)

	var item itemSnapshot
	found := false
	for _, ns := range snapshot(g) {
		for _, it := range ns.Items {
			if it.Kind == "flaky" {
				item, found = it, true
			}
		}
	}
	if !found {
		t.Fatal("flaky item missing from snapshot")
	}
	if item.Health != "quarantined" {
		t.Fatalf("Health = %q, want quarantined", item.Health)
	}
	if item.StaleFor != 3 {
		t.Fatalf("StaleFor = %d, want 3", item.StaleFor)
	}
	if item.Value != any(7.0) {
		t.Fatalf("Value = %v, want last-good 7", item.Value)
	}
	if !strings.Contains(item.Error, "stale") {
		t.Fatalf("Error = %q, want stale tag", item.Error)
	}

	raw, err := SnapshotJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"health": "quarantined"`) {
		t.Fatalf("JSON missing health field:\n%s", raw)
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	ops.NewSource(g, "s", intSchema, 0, 0)
	if snaps := snapshot(g); len(snaps) != 0 {
		t.Fatalf("snapshot of idle graph = %v, want empty", snaps)
	}
}
