// Package graph implements the query graph of the stream processing
// system (Figure 1): sources at the bottom provide raw data streams,
// intermediate operator nodes process them, and sinks at the top
// connect queries to applications. Metadata items and handlers are
// stored at the individual graph nodes (Section 2.2); the graph wires
// each node's metadata registry to its neighbors so that inter-node
// dependencies resolve against the live topology.
//
// The graph supports subquery sharing: an output of any node may feed
// several downstream nodes.
package graph

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/stream"
)

// NodeType classifies graph nodes.
type NodeType int

// Node types.
const (
	// SourceNode provides a raw data stream.
	SourceNode NodeType = iota
	// OperatorNode processes data streams.
	OperatorNode
	// SinkNode delivers query results to an application.
	SinkNode
)

// String returns the node type name.
func (t NodeType) String() string {
	switch t {
	case SourceNode:
		return "source"
	case OperatorNode:
		return "operator"
	case SinkNode:
		return "sink"
	default:
		return fmt.Sprintf("nodetype(%d)", int(t))
	}
}

// Node is a query graph node. Concrete nodes embed Base.
type Node interface {
	// ID is the node's graph-unique identifier.
	ID() int
	// Name is the node's human-readable name.
	Name() string
	// Type classifies the node.
	Type() NodeType
	// Registry is the node's metadata registry.
	Registry() *core.Registry
	// Process handles one input element arriving on the given input
	// port and returns the output elements. Sources are not driven
	// through Process.
	Process(el stream.Element, port int) []stream.Element
}

// Graph is a query graph: nodes plus directed edges from producers to
// consumers.
type Graph struct {
	env *core.Env

	mu    sync.RWMutex
	nodes []Node
	ins   map[int][]Node // consumer id -> producers, in port order
	outs  map[int][]Node // producer id -> consumers
}

// New returns an empty query graph over the environment.
func New(env *core.Env) *Graph {
	return &Graph{
		env:  env,
		ins:  make(map[int][]Node),
		outs: make(map[int][]Node),
	}
}

// Env returns the graph's metadata environment.
func (g *Graph) Env() *core.Env { return g.env }

// NewBase allocates a node core with a registry wired to the graph
// topology. Concrete node constructors embed the returned Base and
// then call Register.
func (g *Graph) NewBase(name string, typ NodeType) *Base {
	g.mu.Lock()
	id := len(g.nodes)
	g.nodes = append(g.nodes, nil) // reserved; Register fills it in
	g.mu.Unlock()

	reg := g.env.NewRegistry(fmt.Sprintf("%s#%d", name, id))
	b := &Base{graph: g, id: id, name: name, typ: typ, reg: reg}
	reg.SetNeighbors(
		func() []*core.Registry { return g.registriesOf(g.Inputs(b)) },
		func() []*core.Registry { return g.registriesOf(g.Outputs(b)) },
	)
	return b
}

// Register installs the concrete node for its base. It must be called
// exactly once per NewBase, before the node is connected.
func (g *Graph) Register(n Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.nodes[n.ID()] != nil {
		panic(fmt.Sprintf("graph: node %d registered twice", n.ID()))
	}
	g.nodes[n.ID()] = n
}

// Connect adds an edge from producer to consumer. The consumer's input
// port is the number of edges already entering it; the order of
// Connect calls therefore defines port numbering.
func (g *Graph) Connect(from, to Node) {
	if from.Type() == SinkNode {
		panic("graph: sink cannot be a producer")
	}
	if to.Type() == SourceNode {
		panic("graph: source cannot be a consumer")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.outs[from.ID()] = append(g.outs[from.ID()], to)
	g.ins[to.ID()] = append(g.ins[to.ID()], from)
}

// Inputs returns the producers feeding n, in port order.
func (g *Graph) Inputs(n Node) []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Node, len(g.ins[n.ID()]))
	copy(out, g.ins[n.ID()])
	return out
}

// Outputs returns the consumers fed by n.
func (g *Graph) Outputs(n Node) []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Node, len(g.outs[n.ID()]))
	copy(out, g.outs[n.ID()])
	return out
}

// InputPort returns the port index of producer from at consumer to,
// or -1.
func (g *Graph) InputPort(from, to Node) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for i, p := range g.ins[to.ID()] {
		if p.ID() == from.ID() {
			return i
		}
	}
	return -1
}

// Nodes returns all registered nodes in id order.
func (g *Graph) Nodes() []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// Topological returns the nodes in a topological order (producers
// before consumers). It panics on a cyclic graph; query graphs are
// DAGs by construction.
func (g *Graph) Topological() []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	indeg := make(map[int]int)
	for _, n := range g.nodes {
		if n != nil {
			indeg[n.ID()] = len(g.ins[n.ID()])
		}
	}
	var ready []Node
	for _, n := range g.nodes {
		if n != nil && indeg[n.ID()] == 0 {
			ready = append(ready, n)
		}
	}
	var order []Node
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, c := range g.outs[n.ID()] {
			indeg[c.ID()]--
			if indeg[c.ID()] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(order) != len(indeg) {
		panic("graph: cycle in query graph")
	}
	return order
}

// Downstream returns every node reachable from n (excluding n).
func (g *Graph) Downstream(n Node) []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[int]bool)
	var out []Node
	var visit func(m Node)
	visit = func(m Node) {
		for _, c := range g.outs[m.ID()] {
			if !seen[c.ID()] {
				seen[c.ID()] = true
				out = append(out, c)
				visit(c)
			}
		}
	}
	visit(n)
	return out
}

// registriesOf maps nodes to their registries.
func (g *Graph) registriesOf(nodes []Node) []*core.Registry {
	regs := make([]*core.Registry, len(nodes))
	for i, n := range nodes {
		regs[i] = n.Registry()
	}
	return regs
}

// Base carries the common state of every node and implements the
// boilerplate of the Node interface. Concrete nodes embed it.
type Base struct {
	graph *Graph
	id    int
	name  string
	typ   NodeType
	reg   *core.Registry
}

// ID implements Node.
func (b *Base) ID() int { return b.id }

// Name implements Node.
func (b *Base) Name() string { return b.name }

// Type implements Node.
func (b *Base) Type() NodeType { return b.typ }

// Registry implements Node.
func (b *Base) Registry() *core.Registry { return b.reg }

// Graph returns the owning graph.
func (b *Base) Graph() *Graph { return b.graph }

// Process implements Node with a panic; sources and sinks that never
// receive elements rely on it, operators override it.
func (b *Base) Process(el stream.Element, port int) []stream.Element {
	panic(fmt.Sprintf("graph: node %s does not process elements", b.name))
}
