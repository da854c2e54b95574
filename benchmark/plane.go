package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
)

// The plane shared by propagate-saturate and churn-read-mix: pipelines
// of opsPerPipeline operator registries, split over two tenants whose
// dependency scopes are disjoint. Every value is an integer, so a
// reference fold over the benchmark's own counters must reproduce the
// plane bit for bit.
//
// Per operator: `in` (static source, announced with NotifyChanged),
// `rate` (periodic, window rateWindow), `sel` (triggered on `in`,
// migratable), `est` (triggered on own `sel`, own `rate` and the
// upstream operator's `est` — a chain of up to ten nodes). Per
// pipeline: `mem_sum` (DeltaSum over its operators' `est`). Per tenant:
// `mem_mean` (DeltaMean over its pipelines' `mem_sum`). With reads:
// per operator also `cost` (on-demand, pure, memoized) and `cost_now`
// (on-demand, volatile).
const (
	opsPerPipeline = 10
	tenants        = 2
	rateWindow     = clock.Duration(100)
)

type planeOp struct {
	reg *core.Registry
	// in is the benchmark-side value behind the operator's `in` source:
	// the generator bumps it, then announces the change.
	in atomic.Int64
}

type planePipeline struct {
	reg *core.Registry
	ops []*planeOp
}

type planeTenant struct {
	reg       *core.Registry
	pipelines []*planePipeline
	ops       []*planeOp // every operator of the tenant, pipeline-major
}

type plane struct {
	env     *core.Env
	vclock  *clock.Virtual
	tenants [tenants]*planeTenant
	regs    []*core.Registry // every registry, for VerifyIntegrity
}

// rateOf is the value an operator's `rate` publishes at a window
// boundary, a function of its source counter at that instant.
func rateOf(in int64) float64 { return float64(in & 15) }

func floatStatic(v float64) func(*core.BuildContext) (core.Handler, error) {
	return func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(v), nil }
}

// sumDeps is the compute of an integer-valued item that adds up its
// dependencies (absent optional ones count zero).
func sumDeps(ctx *core.BuildContext, bias float64) core.ComputeFunc {
	var hs []*core.Handle
	for i := 0; i < ctx.NumDeps(); i++ {
		hs = append(hs, ctx.DepGroup(i)...)
	}
	return func(clock.Time) (core.Value, error) {
		sum := bias
		for _, h := range hs {
			f, err := h.Float()
			if err != nil {
				return nil, err
			}
			sum += f
		}
		return sum, nil
	}
}

// buildPlane defines the plane; nothing is included until subscribed.
// withReads adds the on-demand items churn-read-mix reads.
func buildPlane(pipelines int, withReads bool, opts ...core.EnvOption) *plane {
	vc := clock.NewVirtual()
	p := &plane{env: core.NewEnv(vc, opts...), vclock: vc}
	for t := 0; t < tenants; t++ {
		tn := &planeTenant{reg: p.env.NewRegistry(fmt.Sprintf("t%d", t))}
		p.tenants[t] = tn
		p.regs = append(p.regs, tn.reg)
		for i := 0; i < pipelines/tenants; i++ {
			pl := &planePipeline{reg: p.env.NewRegistry(fmt.Sprintf("t%d.p%03d", t, i))}
			p.regs = append(p.regs, pl.reg)
			for j := 0; j < opsPerPipeline; j++ {
				op := &planeOp{reg: p.env.NewRegistry(fmt.Sprintf("t%d.p%03d.o%d", t, i, j))}
				if j > 0 {
					up := pl.ops[j-1].reg
					op.reg.SetNeighbors(func() []*core.Registry { return []*core.Registry{up} }, nil)
				}
				defineOp(op, withReads)
				pl.ops = append(pl.ops, op)
				tn.ops = append(tn.ops, op)
				p.regs = append(p.regs, op.reg)
			}
			opRegs := make([]*core.Registry, len(pl.ops))
			for j, op := range pl.ops {
				opRegs[j] = op.reg
			}
			pl.reg.SetNeighbors(func() []*core.Registry { return opRegs }, nil)
			pl.reg.MustDefine(&core.Definition{
				Kind:  "mem_sum",
				Deps:  []core.DepRef{core.Dep(core.EachInput(), "est")},
				Delta: core.DeltaSum(),
				Build: core.NewDeltaAggregate,
			})
			tn.pipelines = append(tn.pipelines, pl)
		}
		plRegs := make([]*core.Registry, len(tn.pipelines))
		for i, pl := range tn.pipelines {
			plRegs[i] = pl.reg
		}
		tn.reg.SetNeighbors(func() []*core.Registry { return plRegs }, nil)
		tn.reg.MustDefine(&core.Definition{
			Kind:  "mem_mean",
			Deps:  []core.DepRef{core.Dep(core.EachInput(), "mem_sum")},
			Delta: core.DeltaMean(),
			Build: core.NewDeltaAggregate,
		})
	}
	return p
}

func defineOp(op *planeOp, withReads bool) {
	r := op.reg
	r.MustDefine(&core.Definition{Kind: "in", Build: floatStatic(0)})
	r.MustDefine(&core.Definition{
		Kind: "rate",
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewPeriodic(rateWindow, func(_, _ clock.Time) (core.Value, error) {
				return rateOf(op.in.Load()), nil
			}), nil
		},
	})
	sel := func(clock.Time) (core.Value, error) { return float64(op.in.Load()), nil }
	r.MustDefine(&core.Definition{
		Kind:  "sel",
		Deps:  []core.DepRef{core.Dep(core.Self(), "in")},
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewTriggered(sel), nil },
		Adapt: &core.AdaptSpec{
			Triggered: func(*core.BuildContext) core.ComputeFunc { return sel },
			Periodic: func(*core.BuildContext) core.WindowComputeFunc {
				return func(_, end clock.Time) (core.Value, error) { return sel(end) }
			},
			Window: rateWindow,
		},
	})
	r.MustDefine(&core.Definition{
		Kind: "est",
		Deps: []core.DepRef{
			core.Dep(core.Self(), "sel"),
			core.Dep(core.Self(), "rate"),
			core.OptionalDep(core.Input(0), "est"),
		},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(sumDeps(ctx, 0)), nil
		},
	})
	if !withReads {
		return
	}
	r.MustDefine(&core.Definition{
		Kind: "cost",
		Deps: []core.DepRef{core.Dep(core.Self(), "est")},
		Pure: true,
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(sumDeps(ctx, 1)), nil
		},
	})
	r.MustDefine(&core.Definition{
		Kind: "cost_now",
		Deps: []core.DepRef{core.Dep(core.Self(), "est")},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(sumDeps(ctx, 2)), nil
		},
	})
}

// includedItems counts the items currently included across the plane.
func (p *plane) includedItems() int {
	n := 0
	for _, r := range p.regs {
		n += len(r.Included())
	}
	return n
}

// subscribeAll includes the whole plane: one held subscription on each
// tenant's mem_mean. It includes bottom-up — every pipeline's mem_sum
// first, released once the tenant's aggregate holds it — because a
// subscribe that escapes its dependency scope rolls back and retries
// once per registry it discovers, which is quadratic in the registries
// of a cold tenant (tens of seconds for 2,200 of them top-down).
func (p *plane) subscribeAll() ([]*core.Subscription, error) {
	var held []*core.Subscription
	for _, tn := range p.tenants {
		var scaffold []*core.Subscription
		for _, pl := range tn.pipelines {
			s, err := pl.reg.Subscribe("mem_sum")
			if err != nil {
				return nil, fmt.Errorf("subscribing %s/mem_sum: %w", pl.reg.ID(), err)
			}
			scaffold = append(scaffold, s)
		}
		s, err := tn.reg.Subscribe("mem_mean")
		if err != nil {
			return nil, fmt.Errorf("subscribing %s/mem_mean: %w", tn.reg.ID(), err)
		}
		held = append(held, s)
		for _, s := range scaffold {
			s.Unsubscribe()
		}
	}
	return held, nil
}
