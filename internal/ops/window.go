package ops

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// TimeWindow is the time-based sliding window operator of Section 2.5:
// it assigns a validity to each incoming stream element according to
// the window size, i.e. End = TS + size. The size is adjustable at
// runtime (the adaptive resource manager of Section 3.3 shrinks or
// grows it); a change fires EventWindowChanged so that dependent
// triggered handlers — estimated element validity, estimated join CPU
// usage — re-estimate immediately.
type TimeWindow struct {
	*common
	mu   sync.Mutex
	size clock.Duration
}

// NewTimeWindow creates a time-based window operator.
func NewTimeWindow(g *graph.Graph, name string, schema stream.Schema, size clock.Duration, statWindow clock.Duration) *TimeWindow {
	if size <= 0 {
		panic("ops: window size must be positive")
	}
	w := &TimeWindow{
		common: newCommon(g, name, graph.OperatorNode, schema, statWindow),
		size:   size,
	}
	defineStaticImplType(w.Registry(), "timeWindow")
	w.Registry().MustDefine(&core.Definition{
		Kind: KindWindowSize,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				return float64(w.Size()), nil
			}), nil
		},
	})
	g.Register(w)
	return w
}

// Size returns the current window size.
func (w *TimeWindow) Size() clock.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// SetSize adjusts the window size at runtime and fires the
// window-change event so dependent metadata re-estimates (Section 3.3).
func (w *TimeWindow) SetSize(size clock.Duration) {
	if size <= 0 {
		panic("ops: window size must be positive")
	}
	w.mu.Lock()
	w.size = size
	w.mu.Unlock()
	w.Registry().NotifyChanged(KindWindowSize)
	w.Registry().FireEvent(EventWindowChanged)
}

// Process implements graph.Node.
func (w *TimeWindow) Process(el stream.Element, port int) []stream.Element {
	w.recordIn()
	w.recordCost(1)
	out := el
	out.End = el.TS.Add(w.Size())
	w.recordOut(1)
	return []stream.Element{out}
}

// countWindow is a count-based window: each element is valid until n
// further elements have arrived. Because the expiring timestamp is
// only known when the (i+n)-th element arrives, element i is emitted
// at that moment with validity [TS_i, TS_{i+n}).
type countWindow struct {
	*common
	n   int
	mu  sync.Mutex
	buf []stream.Element
}

// NewCountWindow creates a count-based window of n elements.
func NewCountWindow(g *graph.Graph, name string, schema stream.Schema, n int, statWindow clock.Duration) *countWindow {
	if n <= 0 {
		panic("ops: count window must hold at least one element")
	}
	w := &countWindow{
		common: newCommon(g, name, graph.OperatorNode, schema, statWindow),
		n:      n,
	}
	defineStaticImplType(w.Registry(), "countWindow")
	w.Registry().MustDefine(&core.Definition{
		Kind: KindStateSize,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				w.mu.Lock()
				defer w.mu.Unlock()
				return float64(len(w.buf)), nil
			}), nil
		},
	})
	g.Register(w)
	return w
}

// Process implements graph.Node.
func (w *countWindow) Process(el stream.Element, port int) []stream.Element {
	w.recordIn()
	w.recordCost(1)
	w.mu.Lock()
	w.buf = append(w.buf, el)
	var out []stream.Element
	if len(w.buf) > w.n {
		old := w.buf[0]
		w.buf = w.buf[1:]
		old.End = el.TS
		out = []stream.Element{old}
	}
	w.mu.Unlock()
	if out != nil {
		w.recordOut(1)
	}
	return out
}
