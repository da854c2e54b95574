package pipes

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/stream"
)

// Stream is a fluent handle on a query-graph node's output.
type Stream struct {
	sys  *System
	node graph.Node
}

// Node exposes the underlying graph node.
func (st *Stream) Node() graph.Node { return st.node }

// Metadata exposes the node's metadata registry.
func (st *Stream) Metadata() *Registry { return st.node.Registry() }

// Subscribe obtains a subscription on one of the node's metadata
// items, creating its handler and including its dependencies on
// demand.
func (st *Stream) Subscribe(kind Kind) (*Subscription, error) {
	return st.node.Registry().Subscribe(kind)
}

// Schema returns the stream's schema.
func (st *Stream) Schema() Schema {
	return st.node.(interface{ Schema() stream.Schema }).Schema()
}

// Source adds a raw stream fed by the generator. declaredRate is the
// statically declared expected rate (0 if unknown), used by the cost
// model until measurements are requested.
func (s *System) Source(name string, schema Schema, gen Generator, declaredRate float64) *Stream {
	src := ops.NewSource(s.graph, name, schema, declaredRate, s.statWindow)
	if gen != nil {
		s.bindings = append(s.bindings, func(e *engine.Engine) { e.Bind(src, gen) })
	}
	return &Stream{sys: s, node: src}
}

// Filter keeps elements whose tuples satisfy pred.
func (st *Stream) Filter(name string, pred func(Tuple) bool) *Stream {
	f := ops.NewFilter(st.sys.graph, name, st.Schema(), pred, st.sys.statWindow)
	st.sys.graph.Connect(st.node, f)
	return &Stream{sys: st.sys, node: f}
}

// Map transforms tuples with fn; outSchema describes the result.
func (st *Stream) Map(name string, outSchema Schema, fn func(Tuple) Tuple) *Stream {
	m := ops.NewMap(st.sys.graph, name, outSchema, fn, st.sys.statWindow)
	st.sys.graph.Connect(st.node, m)
	return &Stream{sys: st.sys, node: m}
}

// Window applies a time-based sliding window of the given size.
func (st *Stream) Window(name string, size Duration) *Stream {
	w := ops.NewTimeWindow(st.sys.graph, name, st.Schema(), size, st.sys.statWindow)
	st.sys.graph.Connect(st.node, w)
	return &Stream{sys: st.sys, node: w}
}

// CountWindow applies a count-based window of n elements.
func (st *Stream) CountWindow(name string, n int) *Stream {
	w := ops.NewCountWindow(st.sys.graph, name, st.Schema(), n, st.sys.statWindow)
	st.sys.graph.Connect(st.node, w)
	return &Stream{sys: st.sys, node: w}
}

// JoinOption configures a join.
type JoinOption = ops.JoinOption

// Re-exported join options.
var (
	// WithListAreas stores join state in list sweep areas (default).
	WithListAreas = ops.WithListAreas
	// WithHashAreas stores join state in hash sweep areas.
	WithHashAreas = ops.WithHashAreas
	// WithPredicateCost sets the simulated predicate cost.
	WithPredicateCost = ops.WithPredicateCost
)

// Join combines this stream (left) with other (right) under a sliding-
// window join. Apply Window (or CountWindow) to both inputs first so
// elements carry validities.
func (st *Stream) Join(other *Stream, name string, pred func(l, r Tuple) bool, opts ...JoinOption) *Stream {
	j := ops.NewJoin(st.sys.graph, name, st.Schema(), other.Schema(), pred, st.sys.statWindow, opts...)
	st.sys.graph.Connect(st.node, j)
	st.sys.graph.Connect(other.node, j)
	return &Stream{sys: st.sys, node: j}
}

// Aggregate computes a windowed aggregate over the stream.
func (st *Stream) Aggregate(name string, agg AggFunc) *Stream {
	a := ops.NewAggregate(st.sys.graph, name, agg, st.sys.statWindow)
	st.sys.graph.Connect(st.node, a)
	return &Stream{sys: st.sys, node: a}
}

// GroupAggregate computes a windowed aggregate per key field.
func (st *Stream) GroupAggregate(name string, keyField int, agg AggFunc) *Stream {
	a := ops.NewGroupAggregate(st.sys.graph, name, keyField, agg, st.sys.statWindow)
	st.sys.graph.Connect(st.node, a)
	return &Stream{sys: st.sys, node: a}
}

// Union merges this stream with others of the same schema.
func (st *Stream) Union(name string, others ...*Stream) *Stream {
	u := ops.NewUnion(st.sys.graph, name, st.Schema(), st.sys.statWindow)
	st.sys.graph.Connect(st.node, u)
	for _, o := range others {
		st.sys.graph.Connect(o.node, u)
	}
	return &Stream{sys: st.sys, node: u}
}

// Shed inserts a load-shedding sampler with the given initial drop
// probability.
func (st *Stream) Shed(name string, dropP float64, seed int64) *Stream {
	sm := ops.NewSampler(st.sys.graph, name, st.Schema(), dropP, seed, st.sys.statWindow)
	st.sys.graph.Connect(st.node, sm)
	return &Stream{sys: st.sys, node: sm}
}

// Sink terminates the stream at an application callback (may be nil)
// and returns the sink's stream handle for metadata access. qos and
// priority become the sink's static query-level metadata.
func (st *Stream) Sink(name string, fn func(Element)) *Stream {
	return st.SinkQoS(name, fn, 0, 0)
}

// SinkQoS is Sink with explicit QoS latency budget and priority.
func (st *Stream) SinkQoS(name string, fn func(Element), qosLatency, priority float64) *Stream {
	k := ops.NewSink(st.sys.graph, name, st.Schema(), fn, qosLatency, priority, st.sys.statWindow)
	st.sys.graph.Connect(st.node, k)
	return &Stream{sys: st.sys, node: k}
}

// SetWindowSize adjusts a time-window stream's size at runtime, firing
// the window-change event (Section 3.3).
func (st *Stream) SetWindowSize(size Duration) {
	st.node.(*ops.TimeWindow).SetSize(size)
}
