// Package costmodel implements the resource cost model of Figure 3 on
// top of the metadata framework: estimated element validities,
// estimated stream rates, and the estimated CPU and memory usage of
// time-based sliding-window joins.
//
// Every estimate is a metadata item maintained by a triggered handler,
// wired through intra- and inter-node dependencies exactly as the
// figure shows:
//
//   - a window operator's estimated element validity depends on its
//     window size (intra-node); a window-size change fires an event
//     that re-estimates it (Section 3.3);
//   - a node's estimated output rate depends on its input's estimated
//     output rate (recursive inter-node dependency, Section 2.5) and,
//     for filters and joins, on its measured selectivity;
//   - the join's estimated CPU usage depends on the estimated output
//     rates and element validities of both inputs and on its predicate
//     cost (intra-node);
//   - the join's estimated memory usage additionally depends on the
//     inputs' element sizes.
//
// Sources resolve their estimated output rate dynamically (Section
// 4.4.3): if the measured output rate is already provided, the
// estimate follows the measurement; otherwise it falls back to the
// statically declared rate, avoiding the cost of rate monitoring.
package costmodel

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
)

// Estimated metadata kinds registered by this package.
const (
	// KindEstValidity is the estimated element validity of a node's
	// output stream (time units).
	KindEstValidity = core.Kind("estElementValidity")
	// KindEstOutputRate is the estimated output rate (elements per
	// time unit).
	KindEstOutputRate = core.Kind("estOutputRate")
	// KindEstCPU is the estimated CPU usage (work units per time
	// unit) of an operator.
	KindEstCPU = core.Kind("estimatedCPUUsage")
	// KindEstMem is the estimated memory usage in bytes of an
	// operator's state.
	KindEstMem = core.Kind("estimatedMemUsage")
)

// Install registers cost-model metadata on every supported node of the
// graph. Node types the model does not cover are skipped.
func Install(g *graph.Graph) {
	for _, n := range g.Nodes() {
		switch op := n.(type) {
		case *ops.Source:
			installSource(op)
		case *ops.TimeWindow:
			installTimeWindow(op)
		case *ops.Filter:
			installPassThroughRate(n, true)
			installPassThroughValidity(n)
		case *ops.Map, *ops.Union:
			installPassThroughRate(n, false)
			installPassThroughValidity(n)
		case *ops.Sampler:
			installSamplerRate(op)
			installPassThroughValidity(n)
		case *ops.Join:
			installJoin(op)
		case *ops.Sink:
			installPassThroughRate(n, false)
		}
	}
}

// installSource defines the source's estimated output rate with
// dynamic dependency resolution: prefer the measured output rate when
// it is already provided, otherwise the declared rate.
func installSource(s *ops.Source) {
	r := s.Registry()
	r.MustDefine(&core.Definition{
		Kind: KindEstOutputRate,
		Deps: []core.DepRef{core.Dep(core.Self(), ops.KindDeclaredRate)},
		Resolve: func(rc *core.ResolveContext) []core.DepRef {
			if rc.IsIncluded(core.Self(), ops.KindOutputRate) {
				return []core.DepRef{core.Dep(core.Self(), ops.KindOutputRate)}
			}
			return []core.DepRef{core.Dep(core.Self(), ops.KindDeclaredRate)}
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			dep := ctx.Dep(0)
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return dep.Float()
			}), nil
		},
	})
	// A source's raw elements are points in time.
	r.MustDefine(&core.Definition{
		Kind: KindEstValidity,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewStatic(1.0), nil
		},
	})
}

// installTimeWindow defines the window's estimated validity (equal to
// its window size, refreshed on the window-change event) and its
// estimated output rate (equal to its input's, Section 2.5).
func installTimeWindow(w *ops.TimeWindow) {
	r := w.Registry()
	r.MustDefine(&core.Definition{
		Kind:   KindEstValidity,
		Deps:   []core.DepRef{core.Dep(core.Self(), ops.KindWindowSize)},
		Events: []string{ops.EventWindowChanged},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			size := ctx.Dep(0)
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return size.Float()
			}), nil
		},
	})
	r.MustDefine(&core.Definition{
		Kind: KindEstOutputRate,
		Deps: []core.DepRef{core.Dep(core.Input(0), KindEstOutputRate)},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			dep := ctx.Dep(0)
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return dep.Float()
			}), nil
		},
	})
}

// installPassThroughRate defines the node's estimated output rate as
// its input's estimate, scaled by the measured selectivity when the
// node filters.
func installPassThroughRate(n graph.Node, scaleBySelectivity bool) {
	r := n.Registry()
	deps := []core.DepRef{core.Dep(core.Input(0), KindEstOutputRate)}
	if scaleBySelectivity {
		deps = append(deps, core.Dep(core.Self(), ops.KindSelectivity))
	}
	r.MustDefine(&core.Definition{
		Kind: KindEstOutputRate,
		Deps: deps,
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			in := ctx.Dep(0)
			var sel *core.Handle
			if scaleBySelectivity {
				sel = ctx.Dep(1)
			}
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				rate, err := in.Float()
				if err != nil {
					return nil, err
				}
				if sel != nil {
					s, err := sel.Float()
					if err != nil {
						return nil, err
					}
					rate *= s
				}
				return rate, nil
			}), nil
		},
	})
}

// installPassThroughValidity propagates the input's estimated element
// validity through stateless operators.
func installPassThroughValidity(n graph.Node) {
	n.Registry().MustDefine(&core.Definition{
		Kind: KindEstValidity,
		Deps: []core.DepRef{core.Dep(core.Input(0), KindEstValidity)},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			dep := ctx.Dep(0)
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return dep.Float()
			}), nil
		},
	})
}

// installSamplerRate scales the input rate by the pass probability.
func installSamplerRate(s *ops.Sampler) {
	r := s.Registry()
	r.MustDefine(&core.Definition{
		Kind: KindEstOutputRate,
		Deps: []core.DepRef{
			core.Dep(core.Input(0), KindEstOutputRate),
			core.Dep(core.Self(), ops.KindDropProbability),
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			in, drop := ctx.Dep(0), ctx.Dep(1)
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				rate, err := in.Float()
				if err != nil {
					return nil, err
				}
				p, err := drop.Float()
				if err != nil {
					return nil, err
				}
				return rate * (1 - p), nil
			}), nil
		},
	})
}

// installJoin defines the join estimates of Figure 3.
func installJoin(j *ops.Join) {
	r := j.Registry()

	// Estimated CPU usage: with input rates r1, r2 and element
	// validities v1, v2, each arriving left element probes an expected
	// r2*v2 stored right elements and vice versa, at predCost work
	// units per comparison, plus one unit of insertion work per
	// arrival:
	//
	//	estCPU = (r1*(r2*v2) + r2*(r1*v1)) * c + r1 + r2
	//	       = r1*r2*(v1+v2)*c + r1 + r2.
	r.MustDefine(&core.Definition{
		Kind: KindEstCPU,
		Deps: []core.DepRef{
			core.Dep(core.Input(0), KindEstOutputRate),
			core.Dep(core.Input(1), KindEstOutputRate),
			core.Dep(core.Input(0), KindEstValidity),
			core.Dep(core.Input(1), KindEstValidity),
			core.Dep(core.Self(), ops.KindPredicateCost),
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			r1, r2 := ctx.Dep(0), ctx.Dep(1)
			v1, v2 := ctx.Dep(2), ctx.Dep(3)
			pc := ctx.Dep(4)
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				fr1, err := r1.Float()
				if err != nil {
					return nil, err
				}
				fr2, err := r2.Float()
				if err != nil {
					return nil, err
				}
				fv1, err := v1.Float()
				if err != nil {
					return nil, err
				}
				fv2, err := v2.Float()
				if err != nil {
					return nil, err
				}
				c, err := pc.Float()
				if err != nil {
					return nil, err
				}
				return fr1*fr2*(fv1+fv2)*c + fr1 + fr2, nil
			}), nil
		},
	})

	// Estimated memory usage: the expected sweep-area populations
	// (rate x validity) times the input element sizes.
	r.MustDefine(&core.Definition{
		Kind: KindEstMem,
		Deps: []core.DepRef{
			core.Dep(core.Input(0), KindEstOutputRate),
			core.Dep(core.Input(1), KindEstOutputRate),
			core.Dep(core.Input(0), KindEstValidity),
			core.Dep(core.Input(1), KindEstValidity),
			core.Dep(core.Input(0), ops.KindElementSize),
			core.Dep(core.Input(1), ops.KindElementSize),
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			r1, r2 := ctx.Dep(0), ctx.Dep(1)
			v1, v2 := ctx.Dep(2), ctx.Dep(3)
			s1, s2 := ctx.Dep(4), ctx.Dep(5)
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				fr1, err := r1.Float()
				if err != nil {
					return nil, err
				}
				fr2, err := r2.Float()
				if err != nil {
					return nil, err
				}
				fv1, err := v1.Float()
				if err != nil {
					return nil, err
				}
				fv2, err := v2.Float()
				if err != nil {
					return nil, err
				}
				fs1, err := s1.Float()
				if err != nil {
					return nil, err
				}
				fs2, err := s2.Float()
				if err != nil {
					return nil, err
				}
				return fr1*fv1*fs1 + fr2*fv2*fs2, nil
			}), nil
		},
	})

	// Estimated output rate: total input rate scaled by the join's
	// measured selectivity (output per input element).
	r.MustDefine(&core.Definition{
		Kind: KindEstOutputRate,
		Deps: []core.DepRef{
			core.Dep(core.Input(0), KindEstOutputRate),
			core.Dep(core.Input(1), KindEstOutputRate),
			core.Dep(core.Self(), ops.KindSelectivity),
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			r1, r2, sel := ctx.Dep(0), ctx.Dep(1), ctx.Dep(2)
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				fr1, err := r1.Float()
				if err != nil {
					return nil, err
				}
				fr2, err := r2.Float()
				if err != nil {
					return nil, err
				}
				s, err := sel.Float()
				if err != nil {
					return nil, err
				}
				return (fr1 + fr2) * s, nil
			}), nil
		},
	})
}
