package ops

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// AggFunc is an incremental aggregate over the live window contents.
// Implementations must support removal (the window slides).
type AggFunc interface {
	// Add incorporates a tuple.
	Add(t stream.Tuple)
	// Remove retracts a tuple previously added.
	Remove(t stream.Tuple)
	// Value returns the current aggregate.
	Value() float64
	// Clone returns an empty aggregate of the same kind (for groups).
	Clone() AggFunc
	// Name identifies the aggregate for schemas and logs.
	Name() string
}

// countAgg counts live elements.
type countAgg struct{ n int }

// NewCount returns a COUNT aggregate.
func NewCount() AggFunc { return &countAgg{} }

func (a *countAgg) Add(stream.Tuple)    { a.n++ }
func (a *countAgg) Remove(stream.Tuple) { a.n-- }
func (a *countAgg) Value() float64      { return float64(a.n) }
func (a *countAgg) Clone() AggFunc      { return &countAgg{} }
func (a *countAgg) Name() string        { return "count" }

// sumAgg sums a numeric field.
type sumAgg struct {
	field int
	sum   float64
}

// NewSum returns a SUM aggregate over the given tuple field.
func NewSum(field int) AggFunc { return &sumAgg{field: field} }

func (a *sumAgg) Add(t stream.Tuple)    { a.sum += core.MustFloat(t[a.field]) }
func (a *sumAgg) Remove(t stream.Tuple) { a.sum -= core.MustFloat(t[a.field]) }
func (a *sumAgg) Value() float64        { return a.sum }
func (a *sumAgg) Clone() AggFunc        { return &sumAgg{field: a.field} }
func (a *sumAgg) Name() string          { return fmt.Sprintf("sum(%d)", a.field) }

// avgAgg averages a numeric field.
type avgAgg struct {
	field int
	sum   float64
	n     int
}

// NewAvg returns an AVG aggregate over the given tuple field.
func NewAvg(field int) AggFunc { return &avgAgg{field: field} }

func (a *avgAgg) Add(t stream.Tuple)    { a.sum += core.MustFloat(t[a.field]); a.n++ }
func (a *avgAgg) Remove(t stream.Tuple) { a.sum -= core.MustFloat(t[a.field]); a.n-- }
func (a *avgAgg) Value() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}
func (a *avgAgg) Clone() AggFunc { return &avgAgg{field: a.field} }
func (a *avgAgg) Name() string   { return fmt.Sprintf("avg(%d)", a.field) }

// varAgg computes the population variance of a numeric field (an
// online aggregate like the "variance of the join selectivity" example
// of Section 2.3).
type varAgg struct {
	field int
	sum   float64
	sumSq float64
	n     int
}

// NewVar returns a population-variance aggregate over the field.
func NewVar(field int) AggFunc { return &varAgg{field: field} }

func (a *varAgg) Add(t stream.Tuple) {
	v := core.MustFloat(t[a.field])
	a.sum += v
	a.sumSq += v * v
	a.n++
}

func (a *varAgg) Remove(t stream.Tuple) {
	v := core.MustFloat(t[a.field])
	a.sum -= v
	a.sumSq -= v * v
	a.n--
}

func (a *varAgg) Value() float64 {
	if a.n == 0 {
		return 0
	}
	mean := a.sum / float64(a.n)
	v := a.sumSq/float64(a.n) - mean*mean
	if v < 0 {
		v = 0 // numeric noise
	}
	return v
}
func (a *varAgg) Clone() AggFunc { return &varAgg{field: a.field} }
func (a *varAgg) Name() string   { return fmt.Sprintf("var(%d)", a.field) }

// minAgg tracks the minimum of a numeric field by rescanning on
// removal (non-invertible aggregate).
type minAgg struct {
	field int
	live  map[float64]int
}

// NewMin returns a MIN aggregate over the field.
func NewMin(field int) AggFunc { return &minAgg{field: field, live: make(map[float64]int)} }

func (a *minAgg) Add(t stream.Tuple) { a.live[core.MustFloat(t[a.field])]++ }
func (a *minAgg) Remove(t stream.Tuple) {
	v := core.MustFloat(t[a.field])
	if a.live[v]--; a.live[v] <= 0 {
		delete(a.live, v)
	}
}
func (a *minAgg) Value() float64 {
	min := math.Inf(1)
	for v := range a.live {
		if v < min {
			min = v
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}
func (a *minAgg) Clone() AggFunc { return &minAgg{field: a.field, live: make(map[float64]int)} }
func (a *minAgg) Name() string   { return fmt.Sprintf("min(%d)", a.field) }

// aggregate computes a windowed aggregate over its input: every
// arriving element retracts the elements whose validity has ended,
// adds itself, and emits the current aggregate value.
type aggregate struct {
	*common
	agg AggFunc

	mu   sync.Mutex
	live []stream.Element
}

// aggSchema returns the output schema of an ungrouped aggregate.
func aggSchema(agg AggFunc) stream.Schema {
	return stream.Schema{
		Name:   agg.Name(),
		Fields: []stream.Field{{Name: agg.Name(), Type: "float"}},
	}
}

// NewAggregate creates a windowed aggregation operator.
func NewAggregate(g *graph.Graph, name string, agg AggFunc, statWindow clock.Duration) *aggregate {
	a := &aggregate{
		common: newCommon(g, name, graph.OperatorNode, aggSchema(agg), statWindow),
		agg:    agg,
	}
	defineStaticImplType(a.Registry(), "aggregate")
	a.Registry().MustDefine(&core.Definition{
		Kind: KindStateSize,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(len(a.live)), nil
			}), nil
		},
	})
	g.Register(a)
	return a
}

// Process implements graph.Node.
func (a *aggregate) Process(el stream.Element, port int) []stream.Element {
	a.recordIn()
	a.mu.Lock()
	kept := a.live[:0]
	cost := int64(1)
	for _, old := range a.live {
		if old.End <= el.TS {
			a.agg.Remove(old.Tuple)
			cost++
		} else {
			kept = append(kept, old)
		}
	}
	for i := len(kept); i < len(a.live); i++ {
		a.live[i] = stream.Element{}
	}
	a.live = append(kept, el)
	a.agg.Add(el.Tuple)
	v := a.agg.Value()
	a.mu.Unlock()
	a.recordCost(cost)
	a.recordOut(1)
	return []stream.Element{{Tuple: stream.Tuple{v}, TS: el.TS, End: el.End}}
}

// groupAggregate computes a windowed aggregate per group key.
type groupAggregate struct {
	*common
	keyField int
	proto    AggFunc

	mu     sync.Mutex
	groups map[any]AggFunc
	live   []stream.Element
}

// groupAggSchema returns the output schema of a grouped aggregate.
func groupAggSchema(agg AggFunc) stream.Schema {
	return stream.Schema{
		Name: "group-" + agg.Name(),
		Fields: []stream.Field{
			{Name: "key", Type: "any"},
			{Name: agg.Name(), Type: "float"},
		},
	}
}

// NewGroupAggregate creates a grouped windowed aggregation operator
// keyed by the given tuple field.
func NewGroupAggregate(g *graph.Graph, name string, keyField int, proto AggFunc, statWindow clock.Duration) *groupAggregate {
	a := &groupAggregate{
		common:   newCommon(g, name, graph.OperatorNode, groupAggSchema(proto), statWindow),
		keyField: keyField,
		proto:    proto,
		groups:   make(map[any]AggFunc),
	}
	defineStaticImplType(a.Registry(), "groupAggregate")
	a.Registry().MustDefine(&core.Definition{
		Kind: KindStateSize,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(len(a.live)), nil
			}), nil
		},
	})
	g.Register(a)
	return a
}

// Process implements graph.Node.
func (a *groupAggregate) Process(el stream.Element, port int) []stream.Element {
	a.recordIn()
	a.mu.Lock()
	cost := int64(1)
	kept := a.live[:0]
	for _, old := range a.live {
		if old.End <= el.TS {
			k := old.Tuple[a.keyField]
			if agg := a.groups[k]; agg != nil {
				agg.Remove(old.Tuple)
			}
			cost++
		} else {
			kept = append(kept, old)
		}
	}
	for i := len(kept); i < len(a.live); i++ {
		a.live[i] = stream.Element{}
	}
	a.live = append(kept, el)
	key := el.Tuple[a.keyField]
	agg := a.groups[key]
	if agg == nil {
		agg = a.proto.Clone()
		a.groups[key] = agg
	}
	agg.Add(el.Tuple)
	v := agg.Value()
	a.mu.Unlock()
	a.recordCost(cost)
	a.recordOut(1)
	return []stream.Element{{Tuple: stream.Tuple{key, v}, TS: el.TS, End: el.End}}
}
