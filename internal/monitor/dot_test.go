package monitor

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/stream"
)

// fig3Plan builds the Figure 3 join plan with the cost model and one
// estCPU subscription.
func fig3Plan(t *testing.T) (*graph.Graph, *core.Subscription) {
	t.Helper()
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	s1 := ops.NewSource(g, "s1", intSchema, 0.1, 0)
	s2 := ops.NewSource(g, "s2", intSchema, 0.2, 0)
	w1 := ops.NewTimeWindow(g, "w1", intSchema, 100, 0)
	w2 := ops.NewTimeWindow(g, "w2", intSchema, 50, 0)
	j := ops.NewJoin(g, "join", intSchema, intSchema,
		func(l, r stream.Tuple) bool { return true }, 0)
	sink := ops.NewSink(g, "sink", j.Schema(), nil, 0, 0, 0)
	g.Connect(s1, w1)
	g.Connect(s2, w2)
	g.Connect(w1, j)
	g.Connect(w2, j)
	g.Connect(j, sink)
	costmodel.Install(g)
	sub, err := j.Registry().Subscribe(costmodel.KindEstCPU)
	if err != nil {
		t.Fatal(err)
	}
	return g, sub
}

func TestDependencyDOTRendersFigure3(t *testing.T) {
	g, sub := fig3Plan(t)
	defer sub.Unsubscribe()
	dot := DependencyDOT(g)
	for _, want := range []string{
		"digraph metadata",
		"estimatedCPUUsage",  // the subscribed item
		"estElementValidity", // included via inter-node dependency
		"windowSize",         // included via intra-node dependency
		"(triggered)",        // mechanism labels
		"(on-demand)",
		`"join#4/estimatedCPUUsage" -> "w1#2/estElementValidity";`, // a concrete inter-node edge
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// The estimated output rate of the join is available but unused:
	// it must not appear.
	if strings.Contains(dot, "join#4/estOutputRate") {
		t.Fatal("unused item rendered")
	}
}

func TestDependencyDOTIncludesModules(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	j := ops.NewJoin(g, "join", intSchema, intSchema,
		func(l, r stream.Tuple) bool { return true }, 0)
	sub, err := j.Registry().Subscribe(ops.KindMemUsage)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	dot := DependencyDOT(g)
	if !strings.Contains(dot, "/left/memUsage") || !strings.Contains(dot, "/right/memUsage") {
		t.Fatalf("module items missing from DOT:\n%s", dot)
	}
}

func TestDependencyDOTEmptyGraph(t *testing.T) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	ops.NewSource(g, "s", intSchema, 0, 0)
	dot := DependencyDOT(g)
	if !strings.HasPrefix(dot, "digraph metadata") || strings.Contains(dot, "subgraph") {
		t.Fatalf("empty graph DOT wrong:\n%s", dot)
	}
}

func TestIntrospectionAPIs(t *testing.T) {
	g, sub := fig3Plan(t)
	defer sub.Unsubscribe()
	var join graph.Node
	for _, n := range g.Nodes() {
		if n.Name() == "join" {
			join = n
		}
	}
	deps, ok := join.Registry().Dependencies(costmodel.KindEstCPU)
	if !ok || len(deps) != 5 {
		t.Fatalf("Dependencies = %v, %v; want 5 deps", deps, ok)
	}
	ref, ok := join.Registry().Ref(costmodel.KindEstCPU)
	if !ok || ref.Mechanism != core.TriggeredMechanism {
		t.Fatalf("Ref = %+v, %v", ref, ok)
	}
	// The join's CPU estimate depends on a window's validity item.
	var w1 graph.Node
	for _, n := range g.Nodes() {
		if n.Name() == "w1" {
			w1 = n
		}
	}
	if !slices.ContainsFunc(deps, func(d core.ItemRef) bool {
		return d.RegistryID == w1.Registry().ID() && d.Kind == costmodel.KindEstValidity
	}) {
		t.Fatalf("Dependencies = %v, want one on w1's %s", deps, costmodel.KindEstValidity)
	}
	if _, ok := w1.Registry().Dependencies("nope"); ok {
		t.Fatal("Dependencies reported an absent item")
	}
	if _, ok := w1.Registry().Ref("nope"); ok {
		t.Fatal("Ref reported an absent item")
	}
}
