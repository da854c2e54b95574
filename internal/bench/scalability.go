package bench

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/stream"
)

var benchSchema = stream.Schema{Name: "ints", Fields: []stream.Field{{Name: "v", Type: "int"}}}

// chainPlan builds source -> n filters -> sink and returns the graph,
// clock, source, and the filter nodes.
func chainPlan(n int, statWindow clock.Duration) (*graph.Graph, *clock.Virtual, *ops.Source, []*ops.Filter) {
	vc := clock.NewVirtual()
	g := graph.New(core.NewEnv(vc))
	src := ops.NewSource(g, "src", benchSchema, 1, statWindow)
	prev := graph.Node(src)
	filters := make([]*ops.Filter, n)
	for i := 0; i < n; i++ {
		f := ops.NewFilter(g, fmt.Sprintf("f%d", i), benchSchema,
			func(stream.Tuple) bool { return true }, statWindow)
		g.Connect(prev, f)
		filters[i] = f
		prev = f
	}
	sink := ops.NewSink(g, "sink", benchSchema, nil, 0, 0, statWindow)
	g.Connect(prev, sink)
	return g, vc, src, filters
}

// e3Row is one point of the provision-scalability sweep.
type e3Row struct {
	// Operators is the query-graph size n.
	Operators int
	// Policy is "maintain-all" or "on-demand".
	Policy string
	// SubscribedFraction is the fraction of operators with a consumer
	// under the on-demand policy (1.0 for maintain-all).
	SubscribedFraction float64
	// Handlers is the number of metadata handlers maintained.
	Handlers int64
	// UpdateWork is the number of maintenance operations during the
	// run (periodic + triggered + on-demand computations).
	UpdateWork int64
}

// runE3 sweeps query-graph size under two provision policies:
// "maintain-all" subscribes to every measured item of every operator
// (the compute-everything strawman of Section 1); "on-demand"
// subscribes only to the selectivity of every (1/f)-th operator. The
// workload runs for duration time units with a periodic stat window of
// 50.
func runE3(sizes []int, f float64, duration clock.Duration) []e3Row {
	var rows []e3Row
	measured := []core.Kind{ops.KindInputRate, ops.KindOutputRate, ops.KindSelectivity, ops.KindMeasuredCPU}
	for _, n := range sizes {
		for _, policy := range []string{"maintain-all", "on-demand"} {
			g, vc, src, filters := chainPlan(n, 50)
			var subs []*core.Subscription
			frac := 1.0
			switch policy {
			case "maintain-all":
				for _, fl := range filters {
					for _, k := range measured {
						s, err := fl.Registry().Subscribe(k)
						if err != nil {
							panic(err)
						}
						subs = append(subs, s)
					}
				}
			case "on-demand":
				frac = f
				step := int(1 / f)
				for i := 0; i < n; i += step {
					s, err := filters[i].Registry().Subscribe(ops.KindSelectivity)
					if err != nil {
						panic(err)
					}
					subs = append(subs, s)
				}
			}
			e := engine.New(g, vc)
			e.Bind(src, stream.NewConstantRate(0, 1, 0))
			before := g.Env().Stats().Snapshot()
			e.RunUntil(clock.Time(duration))
			delta := g.Env().Stats().Snapshot().Sub(before)
			rows = append(rows, e3Row{
				Operators:          n,
				Policy:             policy,
				SubscribedFraction: frac,
				Handlers:           before.HandlersCreated,
				UpdateWork:         delta.UpdateWork(),
			})
			for _, s := range subs {
				s.Unsubscribe()
			}
		}
	}
	return rows
}

// e3Table renders the sweep.
func e3Table(rows []e3Row) *Table {
	t := &Table{
		Title:  "E3 — metadata provision scalability (pub-sub on demand vs maintain-all)",
		Note:   "maintain-all cost grows O(n); on-demand grows O(f*n) — tailored provision is crucial to scalability (Sections 1, 4.3)",
		Header: []string{"operators", "policy", "fraction", "handlers", "updateWork"},
	}
	for _, r := range rows {
		t.Add(r.Operators, r.Policy, r.SubscribedFraction, r.Handlers, r.UpdateWork)
	}
	return t
}

// e6Row is one point of the handler-sharing experiment.
type e6Row struct {
	// Consumers is the number of concurrent consumers k.
	Consumers int
	// Shared reports the run with handler sharing (the framework) or
	// the per-consumer-handler baseline.
	Shared bool
	// Handlers is the number of handlers created.
	Handlers int64
	// UpdateWork is the maintenance work during the run.
	UpdateWork int64
}

// runE6 measures handler sharing (Section 2.1): k consumers subscribe
// to the same periodic item ("shared"); the baseline gives every
// consumer a private copy of the item ("unshared", modeling a system
// without subscription sharing). Maintenance cost per time unit stays
// constant with sharing and grows linearly without.
func runE6(ks []int, duration clock.Duration) []e6Row {
	var rows []e6Row
	for _, k := range ks {
		for _, shared := range []bool{true, false} {
			vc := clock.NewVirtual()
			env := core.NewEnv(vc)
			r := env.NewRegistry("op")
			nItems := 1
			if !shared {
				nItems = k
			}
			for i := 0; i < nItems; i++ {
				kind := core.Kind(fmt.Sprintf("rate%d", i))
				r.MustDefine(&core.Definition{
					Kind: kind,
					Build: func(*core.BuildContext) (core.Handler, error) {
						return core.NewPeriodic(10, func(a, b clock.Time) (core.Value, error) {
							return float64(b), nil
						}), nil
					},
				})
			}
			var subs []*core.Subscription
			for i := 0; i < k; i++ {
				kind := core.Kind("rate0")
				if !shared {
					kind = core.Kind(fmt.Sprintf("rate%d", i))
				}
				s, err := r.Subscribe(kind)
				if err != nil {
					panic(err)
				}
				subs = append(subs, s)
			}
			before := env.Stats().Snapshot()
			vc.Advance(duration)
			delta := env.Stats().Snapshot().Sub(before)
			rows = append(rows, e6Row{
				Consumers:  k,
				Shared:     shared,
				Handlers:   before.HandlersCreated,
				UpdateWork: delta.UpdateWork(),
			})
			for _, s := range subs {
				s.Unsubscribe()
			}
		}
	}
	return rows
}

// e6Table renders the sharing comparison.
func e6Table(rows []e6Row) *Table {
	t := &Table{
		Title:  "E6 — handler sharing across consumers",
		Note:   "shared: one handler regardless of k (constant maintenance); unshared baseline: k handlers (linear maintenance)",
		Header: []string{"consumers", "mode", "handlers", "updateWork"},
	}
	for _, r := range rows {
		mode := "shared"
		if !r.Shared {
			mode = "unshared"
		}
		t.Add(r.Consumers, mode, r.Handlers, r.UpdateWork)
	}
	return t
}

// e7Row is one point of the dependency-resolution experiment.
type e7Row struct {
	// Depth is the dependency chain length.
	Depth int
	// FirstTraversals is the number of DFS inclusion steps for the
	// first subscription (creates the whole chain).
	FirstTraversals int64
	// SecondTraversals is the number for a second subscription to the
	// same item (shares the existing handlers).
	SecondTraversals int64
	// IncludedItems is the number of items provided after the first
	// subscription.
	IncludedItems int
}

// runE7 measures automated dependency inclusion (Section 2.4) over
// chains of increasing depth: the first subscription traverses and
// includes the whole chain; a re-subscription stops immediately at the
// already-provided item.
func runE7(depths []int) []e7Row {
	var rows []e7Row
	for _, d := range depths {
		vc := clock.NewVirtual()
		env := core.NewEnv(vc)
		r := env.NewRegistry("op")
		r.MustDefine(&core.Definition{
			Kind: "k0",
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewStatic(1.0), nil
			},
		})
		for i := 1; i <= d; i++ {
			dep := core.Kind(fmt.Sprintf("k%d", i-1))
			r.MustDefine(&core.Definition{
				Kind: core.Kind(fmt.Sprintf("k%d", i)),
				Deps: []core.DepRef{core.Dep(core.Self(), dep)},
				Build: func(ctx *core.BuildContext) (core.Handler, error) {
					h := ctx.Dep(0)
					return core.NewTriggered(func(clock.Time) (core.Value, error) {
						return h.Float()
					}), nil
				},
			})
		}
		top := core.Kind(fmt.Sprintf("k%d", d))
		before := env.Stats().Snapshot()
		s1, err := r.Subscribe(top)
		if err != nil {
			panic(err)
		}
		mid := env.Stats().Snapshot()
		s2, err := r.Subscribe(top)
		if err != nil {
			panic(err)
		}
		after := env.Stats().Snapshot()
		rows = append(rows, e7Row{
			Depth:            d,
			FirstTraversals:  mid.Sub(before).IncludeTraversals,
			SecondTraversals: after.Sub(mid).IncludeTraversals,
			IncludedItems:    len(r.Included()),
		})
		s1.Unsubscribe()
		s2.Unsubscribe()
	}
	return rows
}

// e7Table renders the resolution sweep.
func e7Table(rows []e7Row) *Table {
	t := &Table{
		Title:  "E7 — automated dependency inclusion (DFS)",
		Note:   "first subscription traverses the whole chain (depth+1 steps); a re-subscription stops at the provided item (0 steps)",
		Header: []string{"depth", "first subscr. steps", "re-subscr. steps", "included items"},
	}
	for _, r := range rows {
		t.Add(r.Depth, r.FirstTraversals, r.SecondTraversals, r.IncludedItems)
	}
	return t
}

// e12Row is one point of the subscription-churn experiment.
type e12Row struct {
	// Cycles is the number of subscribe/unsubscribe cycles executed.
	Cycles int
	// AutoRemoval reports whether unsubscription removed handlers.
	AutoRemoval bool
	// LiveHandlers is the number of handlers alive at the end.
	LiveHandlers int64
	// UpdateWork is the total maintenance work during the run.
	UpdateWork int64
}

// runE12 measures the effect of automated handler removal (Section
// 2.1) under subscription churn over a pool of periodic items: with
// auto-removal the maintained set stays bounded by the concurrently
// subscribed items; the baseline never unsubscribes, so handlers and
// update work accumulate.
func runE12(cycles int, poolSize int, holdTime clock.Duration) []e12Row {
	var rows []e12Row
	for _, auto := range []bool{true, false} {
		vc := clock.NewVirtual()
		env := core.NewEnv(vc)
		r := env.NewRegistry("op")
		for i := 0; i < poolSize; i++ {
			r.MustDefine(&core.Definition{
				Kind: core.Kind(fmt.Sprintf("item%d", i)),
				Build: func(*core.BuildContext) (core.Handler, error) {
					return core.NewPeriodic(10, func(a, b clock.Time) (core.Value, error) {
						return float64(b), nil
					}), nil
				},
			})
		}
		before := env.Stats().Snapshot()
		for c := 0; c < cycles; c++ {
			kind := core.Kind(fmt.Sprintf("item%d", c%poolSize))
			s, err := r.Subscribe(kind)
			if err != nil {
				panic(err)
			}
			vc.Advance(holdTime)
			if auto {
				s.Unsubscribe()
			}
		}
		delta := env.Stats().Snapshot().Sub(before)
		rows = append(rows, e12Row{
			Cycles:       cycles,
			AutoRemoval:  auto,
			LiveHandlers: delta.HandlersCreated - delta.HandlersRemoved,
			UpdateWork:   delta.UpdateWork(),
		})
	}
	return rows
}

// e12Table renders the churn comparison.
func e12Table(rows []e12Row) *Table {
	t := &Table{
		Title:  "E12 — subscription churn and automated handler removal",
		Note:   "with auto-removal the maintained set stays bounded and unused items cost nothing; without it, handlers and update work accumulate",
		Header: []string{"cycles", "auto-removal", "live handlers", "updateWork"},
	}
	for _, r := range rows {
		t.Add(r.Cycles, r.AutoRemoval, r.LiveHandlers, r.UpdateWork)
	}
	return t
}

// e13Row is one point of the dynamic-dependency experiment.
type e13Row struct {
	// Resolution is "static" or "dynamic".
	Resolution string
	// Traversals is the inclusion steps for subscribing to A with C
	// already provided.
	Traversals int64
	// IncludedItems is the number of provided items afterwards.
	IncludedItems int
}

// runE13 measures dynamic dependency resolution (Section 4.4.3): item
// A is computable from B — itself the top of an expensive chain of
// chainDepth items — or from the cheap item C. With C already
// included, the dynamic resolver redirects A to C and avoids including
// the chain; static resolution pays for the whole chain.
func runE13(chainDepth int) []e13Row {
	var rows []e13Row
	for _, dynamic := range []bool{false, true} {
		vc := clock.NewVirtual()
		env := core.NewEnv(vc)
		r := env.NewRegistry("op")
		// Chain under B.
		r.MustDefine(&core.Definition{
			Kind:  "b0",
			Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(1.0), nil },
		})
		for i := 1; i <= chainDepth; i++ {
			dep := core.Kind(fmt.Sprintf("b%d", i-1))
			r.MustDefine(&core.Definition{
				Kind: core.Kind(fmt.Sprintf("b%d", i)),
				Deps: []core.DepRef{core.Dep(core.Self(), dep)},
				Build: func(ctx *core.BuildContext) (core.Handler, error) {
					h := ctx.Dep(0)
					return core.NewTriggered(func(clock.Time) (core.Value, error) { return h.Float() }), nil
				},
			})
		}
		B := core.Kind(fmt.Sprintf("b%d", chainDepth))
		r.MustDefine(&core.Definition{
			Kind:  "C",
			Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(2.0), nil },
		})
		def := &core.Definition{
			Kind: "A",
			Deps: []core.DepRef{core.Dep(core.Self(), B)},
			Build: func(ctx *core.BuildContext) (core.Handler, error) {
				h := ctx.Dep(0)
				return core.NewTriggered(func(clock.Time) (core.Value, error) { return h.Float() }), nil
			},
		}
		if dynamic {
			def.Resolve = func(rc *core.ResolveContext) []core.DepRef {
				if rc.IsIncluded(core.Self(), "C") {
					return []core.DepRef{core.Dep(core.Self(), "C")}
				}
				return []core.DepRef{core.Dep(core.Self(), B)}
			}
		}
		r.MustDefine(def)

		sc, err := r.Subscribe("C")
		if err != nil {
			panic(err)
		}
		before := env.Stats().Snapshot()
		sa, err := r.Subscribe("A")
		if err != nil {
			panic(err)
		}
		delta := env.Stats().Snapshot().Sub(before)
		name := "static"
		if dynamic {
			name = "dynamic"
		}
		rows = append(rows, e13Row{
			Resolution:    name,
			Traversals:    delta.IncludeTraversals,
			IncludedItems: len(r.Included()),
		})
		sa.Unsubscribe()
		sc.Unsubscribe()
		_ = vc
	}
	return rows
}

// e13Table renders the comparison.
func e13Table(rows []e13Row) *Table {
	t := &Table{
		Title:  "E13 — dynamic dependency resolution (A from B or C)",
		Note:   "with C already included, the dynamic resolver avoids including B's whole chain (Section 4.4.3)",
		Header: []string{"resolution", "inclusion steps", "included items"},
	}
	for _, r := range rows {
		t.Add(r.Resolution, r.Traversals, r.IncludedItems)
	}
	return t
}
