package ops

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Join is the binary sliding-window join of Figure 3. Each input keeps
// its window contents in an exchangeable sweep-area module ("left",
// "right"); an arriving element is inserted into its own area, expired
// elements are purged from the opposite area, and the opposite area is
// probed for time-overlapping, predicate-satisfying partners.
//
// The join's measured memory usage aggregates the memory usage of its
// two modules through module metadata dependencies (Section 4.5), and
// its probe comparisons feed the measured-CPU item.
type Join struct {
	*common
	pred  func(left, right stream.Tuple) bool
	areas [2]sweepArea
	// predCost is the simulated CPU cost of one predicate evaluation,
	// exposed as metadata for the cost model (Figure 3's "costs of the
	// join predicate" intra-node dependency).
	predCost int64
}

// JoinOption configures a Join.
type JoinOption func(*joinConfig)

type joinConfig struct {
	makeArea func(env *core.Env, id string, elemSize int64, side int) sweepArea
	predCost int64
}

// WithListAreas stores join state in list sweep areas (default).
func WithListAreas() JoinOption {
	return func(c *joinConfig) {
		c.makeArea = func(env *core.Env, id string, elemSize int64, _ int) sweepArea {
			return newListSweepArea(env, id, elemSize)
		}
	}
}

// WithHashAreas stores join state in hash sweep areas keyed by the
// given per-side key extractors. The join predicate must imply key
// equality.
func WithHashAreas(leftKey, rightKey func(stream.Tuple) any) JoinOption {
	keys := [2]func(stream.Tuple) any{leftKey, rightKey}
	return func(c *joinConfig) {
		c.makeArea = func(env *core.Env, id string, elemSize int64, side int) sweepArea {
			return newHashSweepArea(env, id, elemSize, keys[side])
		}
	}
}

// WithPredicateCost sets the simulated cost of one predicate
// evaluation.
func WithPredicateCost(c int64) JoinOption {
	return func(cfg *joinConfig) { cfg.predCost = c }
}

// NewJoin creates a sliding-window join. leftSchema and rightSchema
// are the input schemas (the output schema is their concatenation).
func NewJoin(g *graph.Graph, name string, leftSchema, rightSchema stream.Schema, pred func(left, right stream.Tuple) bool, statWindow clock.Duration, opts ...JoinOption) *Join {
	cfg := joinConfig{predCost: 1}
	WithListAreas()(&cfg)
	for _, o := range opts {
		o(&cfg)
	}
	outSchema := leftSchema.Concat(rightSchema)
	j := &Join{
		common:   newCommon(g, name, graph.OperatorNode, outSchema, statWindow),
		pred:     pred,
		predCost: cfg.predCost,
	}
	env := g.Env()
	j.areas[0] = cfg.makeArea(env, j.Registry().ID()+"/left", leftSchema.ElementSize(), 0)
	j.areas[1] = cfg.makeArea(env, j.Registry().ID()+"/right", rightSchema.ElementSize(), 1)
	j.Registry().AttachModule("left", j.areas[0].Registry())
	j.Registry().AttachModule("right", j.areas[1].Registry())

	defineStaticImplType(j.Registry(), "slidingWindowJoin")
	j.defineJoinMetadata()
	g.Register(j)
	return j
}

// defineJoinMetadata registers the join-specific items.
func (j *Join) defineJoinMetadata() {
	r := j.Registry()

	// State size and measured memory usage aggregate the exchangeable
	// modules — the recursive module-metadata application of Section
	// 4.5 and Figure 3's "memory usage of the internal data
	// structures".
	r.MustDefine(&core.Definition{
		Kind: KindStateSize,
		Deps: []core.DepRef{
			core.Dep(core.Module("left"), kindSize),
			core.Dep(core.Module("right"), kindSize),
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			l, rt := ctx.Dep(0), ctx.Dep(1)
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				a, err := l.Float()
				if err != nil {
					return nil, err
				}
				b, err := rt.Float()
				if err != nil {
					return nil, err
				}
				return a + b, nil
			}), nil
		},
	})
	r.MustDefine(&core.Definition{
		Kind: KindMemUsage,
		Deps: []core.DepRef{
			core.Dep(core.Module("left"), KindMemUsage),
			core.Dep(core.Module("right"), KindMemUsage),
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			l, rt := ctx.Dep(0), ctx.Dep(1)
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				a, err := l.Float()
				if err != nil {
					return nil, err
				}
				b, err := rt.Float()
				if err != nil {
					return nil, err
				}
				return a + b, nil
			}), nil
		},
	})
	// The predicate cost is an intra-node input to the cost model.
	r.MustDefine(&core.Definition{
		Kind: KindPredicateCost,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				return float64(j.predCost), nil
			}), nil
		},
	})
}

// Area returns the sweep-area module of the given side (0 = left).
func (j *Join) Area(side int) sweepArea { return j.areas[side] }

// Process implements graph.Node.
func (j *Join) Process(el stream.Element, port int) []stream.Element {
	j.recordIn()
	own, other := j.areas[port], j.areas[1-port]

	// Time-based expiration: elements whose validity ended before the
	// new element's timestamp can no longer join.
	own.PurgeBefore(el.TS)
	other.PurgeBefore(el.TS)
	own.Insert(el)

	var out []stream.Element
	pred := func(stored stream.Tuple) bool {
		if port == 0 {
			return j.pred(el.Tuple, stored)
		}
		return j.pred(stored, el.Tuple)
	}
	comparisons := other.Probe(el, pred, func(stored stream.Element) {
		ts := el.TS
		if stored.TS > ts {
			ts = stored.TS
		}
		end := el.End
		if stored.End < end {
			end = stored.End
		}
		var tuple stream.Tuple
		if port == 0 {
			tuple = el.Tuple.Concat(stored.Tuple)
		} else {
			tuple = stored.Tuple.Concat(el.Tuple)
		}
		out = append(out, stream.Element{Tuple: tuple, TS: ts, End: end})
	})
	j.recordCost(int64(comparisons)*j.predCost + 1)
	j.recordOut(int64(len(out)))
	return out
}

// KindPredicateCost is the simulated CPU cost of one join-predicate
// evaluation.
const KindPredicateCost = core.Kind("predicateCost")
