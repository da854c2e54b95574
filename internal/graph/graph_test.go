package graph

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/stream"
)

// testNode is a minimal concrete node for graph tests.
type testNode struct {
	*Base
}

func (n *testNode) Process(el stream.Element, port int) []stream.Element {
	return []stream.Element{el}
}

func newTestGraph() *Graph {
	return New(core.NewEnv(clock.NewVirtual()))
}

func addNode(g *Graph, name string, typ NodeType) *testNode {
	n := &testNode{Base: g.NewBase(name, typ)}
	g.Register(n)
	return n
}

func TestNodeIdentity(t *testing.T) {
	g := newTestGraph()
	a := addNode(g, "src", SourceNode)
	b := addNode(g, "op", OperatorNode)
	if a.ID() == b.ID() {
		t.Fatal("node ids not unique")
	}
	if a.Name() != "src" || a.Type() != SourceNode {
		t.Fatal("base accessors wrong")
	}
	if a.Registry() == nil || a.Registry() == b.Registry() {
		t.Fatal("registries missing or shared")
	}
	if a.Graph() != g {
		t.Fatal("graph backref wrong")
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	g := newTestGraph()
	n := addNode(g, "x", OperatorNode)
	defer func() {
		if recover() == nil {
			t.Fatal("double Register did not panic")
		}
	}()
	g.Register(n)
}

func TestConnectAndPorts(t *testing.T) {
	g := newTestGraph()
	s1 := addNode(g, "s1", SourceNode)
	s2 := addNode(g, "s2", SourceNode)
	j := addNode(g, "join", OperatorNode)
	k := addNode(g, "sink", SinkNode)
	g.Connect(s1, j)
	g.Connect(s2, j)
	g.Connect(j, k)

	ins := g.Inputs(j)
	if len(ins) != 2 || ins[0].ID() != s1.ID() || ins[1].ID() != s2.ID() {
		t.Fatalf("Inputs = %v (port order must follow Connect order)", ins)
	}
	if got := g.InputPort(s2, j); got != 1 {
		t.Fatalf("InputPort(s2, j) = %d, want 1", got)
	}
	if got := g.InputPort(k, j); got != -1 {
		t.Fatalf("InputPort(non-producer) = %d, want -1", got)
	}
	if outs := g.Outputs(j); len(outs) != 1 || outs[0].ID() != k.ID() {
		t.Fatalf("Outputs = %v", outs)
	}
}

func TestConnectInvalidEndpointsPanic(t *testing.T) {
	g := newTestGraph()
	src := addNode(g, "s", SourceNode)
	sink := addNode(g, "k", SinkNode)
	op := addNode(g, "o", OperatorNode)
	for _, c := range []struct{ from, to Node }{
		{sink, op}, // sink as producer
		{op, src},  // source as consumer
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid Connect did not panic")
				}
			}()
			g.Connect(c.from, c.to)
		}()
	}
}

func TestSubquerySharing(t *testing.T) {
	g := newTestGraph()
	s := addNode(g, "s", SourceNode)
	op := addNode(g, "shared", OperatorNode)
	k1 := addNode(g, "k1", SinkNode)
	k2 := addNode(g, "k2", SinkNode)
	g.Connect(s, op)
	g.Connect(op, k1)
	g.Connect(op, k2)
	if got := len(g.Outputs(op)); got != 2 {
		t.Fatalf("shared operator has %d consumers, want 2", got)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := newTestGraph()
	s := addNode(g, "s", SourceNode)
	a := addNode(g, "a", OperatorNode)
	b := addNode(g, "b", OperatorNode)
	j := addNode(g, "j", OperatorNode)
	k := addNode(g, "k", SinkNode)
	g.Connect(s, a)
	g.Connect(s, b)
	g.Connect(a, j)
	g.Connect(b, j)
	g.Connect(j, k)
	order := g.Topological()
	pos := make(map[int]int)
	for i, n := range order {
		pos[n.ID()] = i
	}
	if !(pos[s.ID()] < pos[a.ID()] && pos[a.ID()] < pos[j.ID()] && pos[j.ID()] < pos[k.ID()] && pos[b.ID()] < pos[j.ID()]) {
		t.Fatalf("bad topological order: %v", order)
	}
}

func TestDownstream(t *testing.T) {
	g := newTestGraph()
	s := addNode(g, "s", SourceNode)
	a := addNode(g, "a", OperatorNode)
	k := addNode(g, "k", SinkNode)
	g.Connect(s, a)
	g.Connect(a, k)
	down := g.Downstream(s)
	if len(down) != 2 {
		t.Fatalf("Downstream(s) = %d nodes, want 2", len(down))
	}
	if len(g.Downstream(k)) != 0 {
		t.Fatal("the sink has downstream nodes")
	}
}

// TestRegistryNeighborsFollowTopology checks that inter-node metadata
// dependencies resolve against the live wiring.
func TestRegistryNeighborsFollowTopology(t *testing.T) {
	g := newTestGraph()
	s := addNode(g, "s", SourceNode)
	op := addNode(g, "op", OperatorNode)
	g.Connect(s, op)

	s.Registry().MustDefine(&core.Definition{
		Kind:  "outputRate",
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(0.25), nil },
	})
	op.Registry().MustDefine(&core.Definition{
		Kind: "estInputRate",
		Deps: []core.DepRef{core.Dep(core.Input(0), "outputRate")},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			dep := ctx.Dep(0)
			return core.NewOnDemand(func(clock.Time) (core.Value, error) { return dep.Value() }), nil
		},
	})
	sub, err := op.Registry().Subscribe("estInputRate")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if v, _ := sub.Float(); v != 0.25 {
		t.Fatalf("estInputRate = %v, want 0.25 via graph wiring", v)
	}
}

func TestBaseProcessPanics(t *testing.T) {
	g := newTestGraph()
	b := g.NewBase("raw", SinkNode)
	defer func() {
		if recover() == nil {
			t.Fatal("Base.Process did not panic")
		}
	}()
	b.Process(stream.Element{}, 0)
}

func TestNodeTypeString(t *testing.T) {
	if SourceNode.String() != "source" || OperatorNode.String() != "operator" || SinkNode.String() != "sink" {
		t.Fatal("NodeType strings wrong")
	}
	if NodeType(9).String() != "nodetype(9)" {
		t.Fatal("unknown NodeType string wrong")
	}
}
