package ops

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Filter passes elements whose tuples satisfy a predicate. Its
// selectivity metadata is the canonical scheduler input (Chain [5]
// reacts to selectivity changes).
type Filter struct {
	*common
	mu   sync.Mutex
	pred func(stream.Tuple) bool
	// costPerElement is the simulated CPU work of one predicate
	// evaluation.
	costPerElement int64
}

// NewFilter creates a filter over the schema of its (future) input.
func NewFilter(g *graph.Graph, name string, schema stream.Schema, pred func(stream.Tuple) bool, statWindow clock.Duration) *Filter {
	f := &Filter{
		common:         newCommon(g, name, graph.OperatorNode, schema, statWindow),
		pred:           pred,
		costPerElement: 1,
	}
	defineStaticImplType(f.Registry(), "filter")
	g.Register(f)
	return f
}

// SetCostPerElement adjusts the simulated predicate cost.
func (f *Filter) SetCostPerElement(c int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.costPerElement = c
}

// CostPerElement returns the simulated predicate cost.
func (f *Filter) CostPerElement() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.costPerElement
}

// Predicate returns the filter's current predicate.
func (f *Filter) Predicate() func(stream.Tuple) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pred
}

// SetPredicate replaces the filter's predicate (and its simulated
// cost) at runtime. The adaptive optimizer uses it to reorder
// commuting predicates along a filter chain without rewiring the
// graph; measured selectivity metadata re-converges over the following
// update windows.
func (f *Filter) SetPredicate(pred func(stream.Tuple) bool, cost int64) {
	f.mu.Lock()
	f.pred = pred
	f.costPerElement = cost
	f.mu.Unlock()
	f.Registry().FireEvent(eventStateChanged)
}

// Process implements graph.Node.
func (f *Filter) Process(el stream.Element, port int) []stream.Element {
	f.mu.Lock()
	pred, cost := f.pred, f.costPerElement
	f.mu.Unlock()
	f.recordIn()
	f.recordCost(cost)
	if !pred(el.Tuple) {
		return nil
	}
	f.recordOut(1)
	return []stream.Element{el}
}

// Map transforms each tuple with a function.
type Map struct {
	*common
	fn func(stream.Tuple) stream.Tuple
}

// NewMap creates a map operator with the given output schema.
func NewMap(g *graph.Graph, name string, outSchema stream.Schema, fn func(stream.Tuple) stream.Tuple, statWindow clock.Duration) *Map {
	m := &Map{
		common: newCommon(g, name, graph.OperatorNode, outSchema, statWindow),
		fn:     fn,
	}
	defineStaticImplType(m.Registry(), "map")
	g.Register(m)
	return m
}

// Process implements graph.Node.
func (m *Map) Process(el stream.Element, port int) []stream.Element {
	m.recordIn()
	m.recordCost(1)
	out := el
	out.Tuple = m.fn(el.Tuple)
	m.recordOut(1)
	return []stream.Element{out}
}

// Union merges any number of inputs with identical schemas.
type Union struct {
	*common
}

// NewUnion creates a union operator.
func NewUnion(g *graph.Graph, name string, schema stream.Schema, statWindow clock.Duration) *Union {
	u := &Union{common: newCommon(g, name, graph.OperatorNode, schema, statWindow)}
	defineStaticImplType(u.Registry(), "union")
	g.Register(u)
	return u
}

// Process implements graph.Node.
func (u *Union) Process(el stream.Element, port int) []stream.Element {
	u.recordIn()
	u.recordCost(1)
	u.recordOut(1)
	return []stream.Element{el}
}

// Sink consumes query results on behalf of an application and carries
// the query-level metadata of Figure 1 (QoS specification, priority).
// It also measures the delivery latency of its results — application
// time between an element's timestamp and its arrival at the sink —
// as periodic metadata, the runtime statistic QoS enforcement needs.
type Sink struct {
	*common
	onElement func(stream.Element)
	latSum    core.Counter // sum of delivery latencies in the window
	latCount  core.Counter // deliveries in the window
}

// NewSink creates a sink. onElement may be nil; qosLatency is the
// static QoS latency budget and priority the static scheduling
// priority exposed as metadata.
func NewSink(g *graph.Graph, name string, schema stream.Schema, onElement func(stream.Element), qosLatency float64, priority float64, statWindow clock.Duration) *Sink {
	s := &Sink{
		common:    newCommon(g, name, graph.SinkNode, schema, statWindow),
		onElement: onElement,
	}
	defineStaticImplType(s.Registry(), "sink")
	defineStaticFloat(s.Registry(), KindQoSLatency, qosLatency)
	defineStaticFloat(s.Registry(), KindQoSPriority, priority)
	s.defineLatencyMetadata()
	g.Register(s)
	return s
}

// defineLatencyMetadata registers the measured average delivery
// latency per update window.
func (s *Sink) defineLatencyMetadata() {
	latSum, latCount, window := &s.latSum, &s.latCount, s.statWindow
	s.Registry().MustDefine(&core.Definition{
		Kind:  KindAvgLatency,
		Probe: core.Probes{latSum, latCount},
		Build: func(*core.BuildContext) (core.Handler, error) {
			last := 0.0
			return core.NewPeriodic(window, func(start, end clock.Time) (core.Value, error) {
				n := latCount.Take()
				sum := latSum.Take()
				if n > 0 {
					last = float64(sum) / float64(n)
				}
				// Windows without deliveries keep the previous value.
				return last, nil
			}), nil
		},
	})
}

// Process implements graph.Node.
func (s *Sink) Process(el stream.Element, port int) []stream.Element {
	s.recordIn()
	if s.latCount.Active() {
		now := s.Registry().Env().Now()
		s.latSum.Add(int64(now.Sub(el.TS)))
		s.latCount.Inc()
	}
	if s.onElement != nil {
		s.onElement(el)
	}
	return nil
}

// KindAvgLatency is a sink's measured average delivery latency per
// update window (time units between element timestamp and delivery).
const KindAvgLatency = core.Kind("avgLatency")
