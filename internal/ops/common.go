package ops

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// DefaultStatWindow is the default update window of periodic metadata
// handlers. It calibrates the freshness/overhead trade-off of Section
// 3.1 and can be overridden per node.
const DefaultStatWindow = clock.Duration(100)

// common carries the per-node instrumentation shared by all concrete
// nodes: activation-gated probes for the measured metadata items, and
// the standard metadata definitions. Each metadata item owns its own
// probe so that, e.g., the input-rate item and the selectivity item
// can reset their window counters independently.
type common struct {
	*graph.Base

	schema     stream.Schema
	statWindow clock.Duration

	// Probes, one per measured item (activated only while the item's
	// handler exists).
	totIn   core.Counter // countIn
	totOut  core.Counter // countOut
	rateIn  core.Counter // inputRate window counter
	rateOut core.Counter // outputRate window counter
	selIn   core.Counter // selectivity window counters
	selOut  core.Counter
	cpu     core.Counter // measuredCPUUsage work accumulator
}

// newCommon builds the node core and registers the standard metadata.
func newCommon(g *graph.Graph, name string, typ graph.NodeType, schema stream.Schema, statWindow clock.Duration) *common {
	if statWindow <= 0 {
		statWindow = DefaultStatWindow
	}
	c := &common{
		Base:       g.NewBase(name, typ),
		schema:     schema,
		statWindow: statWindow,
	}
	c.defineStandardMetadata()
	return c
}

// Schema returns the node's output schema.
func (c *common) Schema() stream.Schema { return c.schema }

// recordIn instruments one input element.
func (c *common) recordIn() {
	c.totIn.Inc()
	c.rateIn.Inc()
	c.selIn.Inc()
}

// recordOut instruments n output elements.
func (c *common) recordOut(n int64) {
	c.totOut.Add(n)
	c.rateOut.Add(n)
	c.selOut.Add(n)
}

// recordCost accumulates simulated CPU work units.
func (c *common) recordCost(units int64) { c.cpu.Add(units) }

// rateDefinition builds a periodic rate item over a window counter.
func rateDefinition(kind core.Kind, probe *core.Counter, window clock.Duration) *core.Definition {
	return &core.Definition{
		Kind:  kind,
		Probe: probe,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewPeriodic(window, func(start, end clock.Time) (core.Value, error) {
				w := end.Sub(start)
				if w == 0 {
					return 0.0, nil
				}
				return float64(probe.Take()) / float64(w), nil
			}), nil
		},
	}
}

// runningAvgDefinition builds a triggered running average over a
// periodic base item (Section 3.2.3: replacing an on-demand average by
// a triggered handler synchronizes it with the base item's updates).
func runningAvgDefinition(kind, base core.Kind) *core.Definition {
	return &core.Definition{
		Kind: kind,
		Deps: []core.DepRef{core.Dep(core.Self(), base)},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			dep := ctx.Dep(0)
			n, sum := 0.0, 0.0
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				v, err := dep.Float()
				if err != nil {
					return nil, err
				}
				n++
				sum += v
				return sum / n, nil
			}), nil
		},
	}
}

// counterDefinition builds an on-demand cumulative counter item.
func counterDefinition(kind core.Kind, probe *core.Counter) *core.Definition {
	return &core.Definition{
		Kind:  kind,
		Probe: probe,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				return float64(probe.Read()), nil
			}), nil
		},
	}
}

// defineStandardMetadata registers the items every node provides.
func (c *common) defineStandardMetadata() {
	r := c.Registry()
	schema := c.schema
	r.MustDefine(&core.Definition{
		Kind:  KindSchema,
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(schema), nil },
	})
	r.MustDefine(&core.Definition{
		Kind:  KindElementSize,
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(schema.ElementSize()), nil },
	})
	r.MustDefine(counterDefinition(KindCountIn, &c.totIn))
	r.MustDefine(counterDefinition(KindCountOut, &c.totOut))
	r.MustDefine(rateDefinition(KindInputRate, &c.rateIn, c.statWindow))
	r.MustDefine(rateDefinition(KindOutputRate, &c.rateOut, c.statWindow))
	r.MustDefine(runningAvgDefinition(KindAvgInputRate, KindInputRate))
	r.MustDefine(runningAvgDefinition(KindAvgOutputRate, KindOutputRate))

	// Selectivity: output/input ratio per update window (Section 2.3).
	selIn, selOut, window := &c.selIn, &c.selOut, c.statWindow
	r.MustDefine(&core.Definition{
		Kind:  KindSelectivity,
		Probe: core.Probes{selIn, selOut},
		Build: func(*core.BuildContext) (core.Handler, error) {
			last := 1.0
			return core.NewPeriodic(window, func(start, end clock.Time) (core.Value, error) {
				in, out := selIn.Take(), selOut.Take()
				if in > 0 {
					last = float64(out) / float64(in)
				}
				// Windows without input keep the previous estimate.
				return last, nil
			}), nil
		},
	})

	// Fanout: how many consumers share this node's output (Figure 1's
	// reuse frequency). On-demand over the live topology.
	r.MustDefine(&core.Definition{
		Kind: KindFanout,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				return float64(len(c.Graph().Outputs(c))), nil
			}), nil
		},
	})

	// Measured CPU usage: simulated work units per time unit.
	cpu := &c.cpu
	r.MustDefine(&core.Definition{
		Kind:  KindMeasuredCPU,
		Probe: cpu,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewPeriodic(window, func(start, end clock.Time) (core.Value, error) {
				w := end.Sub(start)
				if w == 0 {
					return 0.0, nil
				}
				return float64(cpu.Take()) / float64(w), nil
			}), nil
		},
	})
}

// defineStaticFloat registers a static numeric item.
func defineStaticFloat(r *core.Registry, kind core.Kind, v float64) {
	r.MustDefine(&core.Definition{
		Kind:  kind,
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(v), nil },
	})
}

// defineStaticImplType registers the implementation-type item.
func defineStaticImplType(r *core.Registry, impl string) {
	r.MustDefine(&core.Definition{
		Kind:  KindImplType,
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(impl), nil },
	})
}
