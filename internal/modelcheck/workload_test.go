package modelcheck

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
	"repro/internal/core"
)

// The workload DSL. It mirrors core's declaration surface (selectors,
// dependency refs, mechanisms) with inspectable fields, so the
// sequential reference model can resolve dependencies and predict
// values without reaching into core internals.

// SelKind discriminates dependency selectors.
type SelKind int

// Selector kinds used by generated workloads. Output selectors are
// omitted on purpose: with input edges pointing at lower-numbered
// registries the generated dependency graph is acyclic by
// construction.
const (
	SelSelf SelKind = iota
	SelInput
	SelEachInput
	SelModule
)

// DepSpec is one declared dependency of a workload item.
type DepSpec struct {
	Sel      SelKind
	Index    int    // input index, for SelInput
	Name     string // module name, for SelModule
	Kind     core.Kind
	Optional bool
}

// AdaptKind classifies a workload item's migratability (its
// Definition.Adapt surface).
type AdaptKind int

const (
	// AdaptNone: no AdaptSpec; Migrate must reject the item.
	AdaptNone AdaptKind = iota
	// AdaptExact: migratable between the periodic form and a PURE
	// on-demand form whose value is exactly Base — no time term, no
	// dependency sum. Used for the dependency-free "k0" items so that
	// delta-aggregate fan-ins stay exactly representable in every
	// mechanism the item can migrate through (a triggered form's
	// 0.01·now term would poison delta-vs-fold bit equality, so
	// AdaptExact deliberately has no triggered form).
	AdaptExact
	// AdaptFull: migratable between all three dynamic mechanisms, with
	// the standard value semantics of each form (see system_test.go). Never
	// part of an aggregate fan-in.
	AdaptFull
)

// ItemSpec declares one metadata item of a workload registry. Base is
// the constant term of the item's deterministic compute function; the
// full value semantics live in valueSemantics (system_test.go) and are
// mirrored exactly by the model.
type ItemSpec struct {
	Kind core.Kind
	Mech core.Mechanism
	// Window is the update period of periodic items, and for adaptable
	// items also the AdaptSpec default window a migration to periodic
	// falls back to when the op carries none.
	Window clock.Duration
	Deps   []DepSpec
	Events []string
	Base   float64
	// Adapt declares the item's migration surface; AdaptNone items are
	// pinned to Mech.
	Adapt AdaptKind
	// Pure marks an on-demand item whose compute omits the access-time
	// term: its value is a function of the declared dependencies alone,
	// so the real system may memoize it under WithMemoizedOnDemand.
	// Volatile (non-pure) on-demand items keep the 0.001·now term and
	// must recompute on every access even with memoization enabled.
	Pure bool
	// Agg names the delta-aggregate form of a triggered item ("sum",
	// "count", "mean", "min"; empty for plain items). Aggregate values
	// are the declared fold over the dependency fan-in — no Base or
	// time term — so the incremental delta path and the model's full
	// fold must agree bit for bit.
	Agg string
	// Rebase is the aggregate's DeltaSpec.RebaseEvery (0 = core
	// default, negative = never).
	Rebase int
}

// RegSpec declares one registry of the workload topology. Module
// registries have Parent >= 0 and are attached to Regs[Parent] under
// ModName at setup time.
type RegSpec struct {
	ID      string
	Inputs  []int // indices of upstream registries (base registries only)
	Parent  int   // -1 for base registries
	ModName string
	Items   []ItemSpec
}

// OpKind enumerates workload operations.
type OpKind int

// Workload operations. OpAdvance moves the virtual clock; in the
// concurrent driver all advances run on one worker because the
// virtual clock forbids re-entrant advancement.
const (
	OpSubscribe     OpKind = iota // subscribe to (Reg, Item); hold the subscription
	OpUnsubscribe                 // release held subscription #Arg (mod pool size)
	OpAdvance                     // advance the virtual clock by Arg units
	OpFireEvent                   // fire Event on Reg
	OpNotifyChanged               // announce a change of (Reg, Item)
	OpRead                        // read (Reg, Item) via Peek
	OpRedefine                    // re-Define (Reg, Item); fails while included
	OpAttachModule                // re-attach module Reg to its parent
	OpMigrate                     // migrate (Reg, Item) to mechanism Arg&0xff, window Arg>>8
)

// Op is one step of a workload script.
type Op struct {
	Kind  OpKind
	Reg   int
	Item  core.Kind
	Arg   int64
	Event string
}

// String renders the op for failure messages.
func (o Op) String() string {
	switch o.Kind {
	case OpSubscribe:
		return fmt.Sprintf("subscribe r%d/%s", o.Reg, o.Item)
	case OpUnsubscribe:
		return fmt.Sprintf("unsubscribe #%d", o.Arg)
	case OpAdvance:
		return fmt.Sprintf("advance %d", o.Arg)
	case OpFireEvent:
		return fmt.Sprintf("fire r%d/%s", o.Reg, o.Event)
	case OpNotifyChanged:
		return fmt.Sprintf("notify r%d/%s", o.Reg, o.Item)
	case OpRead:
		return fmt.Sprintf("read r%d/%s", o.Reg, o.Item)
	case OpRedefine:
		return fmt.Sprintf("redefine r%d/%s", o.Reg, o.Item)
	case OpAttachModule:
		return fmt.Sprintf("attach r%d", o.Reg)
	case OpMigrate:
		return fmt.Sprintf("migrate r%d/%s -> mech=%d w=%d", o.Reg, o.Item, o.Arg&0xff, o.Arg>>8)
	default:
		return fmt.Sprintf("op(%d)", int(o.Kind))
	}
}

// Workload is a replayable script: the topology plus the op sequence,
// both fully determined by the seed.
type Workload struct {
	Seed int64
	Regs []RegSpec
	Ops  []Op
}

// Item returns the spec of (reg, kind), or nil if undefined.
func (w *Workload) Item(reg int, kind core.Kind) *ItemSpec {
	for i := range w.Regs[reg].Items {
		if w.Regs[reg].Items[i].Kind == kind {
			return &w.Regs[reg].Items[i]
		}
	}
	return nil
}

// Config tunes workload generation.
type Config struct {
	// Ops is the script length (default 60).
	Ops int
	// Concurrent restricts the op mix to operations whose final
	// structural outcome is interleaving-independent (no redefine,
	// whose success depends on racy state, and no module attach), so
	// the concurrent driver can predict the quiescent state.
	Concurrent bool
}

// Generate builds the workload for a seed: a random DAG of registries
// with modules, a metadata item catalog mixing all four maintenance
// mechanisms, and an op script. The same seed always yields the same
// workload.
func Generate(seed int64, cfg Config) *Workload {
	if cfg.Ops == 0 {
		cfg.Ops = 60
	}
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Seed: seed}

	// --- Topology: base registries with input edges to lower indices.
	nBase := 3 + rng.Intn(4) // 3..6
	for i := 0; i < nBase; i++ {
		spec := RegSpec{ID: fmt.Sprintf("r%d", i), Parent: -1}
		if i > 0 {
			for _, in := range rng.Perm(i) {
				if len(spec.Inputs) >= 2 {
					break
				}
				if rng.Float64() < 0.7 {
					spec.Inputs = append(spec.Inputs, in)
				}
			}
		}
		w.Regs = append(w.Regs, spec)
	}
	// Modules: about half the base registries carry one.
	for i := 0; i < nBase; i++ {
		if rng.Float64() < 0.5 {
			w.Regs = append(w.Regs, RegSpec{
				ID:      fmt.Sprintf("r%d.m", i),
				Parent:  i,
				ModName: "m",
			})
		}
	}

	// --- Items. Item 0 of every registry is dependency-free so that
	// EachInput dependencies on kind "k0" always resolve.
	for ri := range w.Regs {
		reg := &w.Regs[ri]
		n := 2 + rng.Intn(3) // 2..4 items
		for j := 0; j < n; j++ {
			it := ItemSpec{
				Kind: core.Kind(fmt.Sprintf("k%d", j)),
				Base: float64(ri*97 + j*13),
			}
			if j == 0 {
				if rng.Float64() < 0.5 {
					it.Mech = core.StaticMechanism
				} else {
					it.Mech = core.PeriodicMechanism
					it.Window = []clock.Duration{3, 5, 7, 10}[rng.Intn(4)]
					if rng.Float64() < 0.6 {
						// Migratable aggregate-fan-in source: periodic <->
						// pure on-demand (value Base, an exact integer), so
						// any aggregate folding it stays bit-exact whichever
						// mechanism it currently runs.
						it.Adapt = AdaptExact
						it.Pure = true
					}
				}
			} else {
				switch p := rng.Float64(); {
				case p < 0.20:
					it.Mech = core.StaticMechanism
				case p < 0.45:
					it.Mech = core.OnDemandMechanism
					// Half the on-demand items are pure, so memo-enabled
					// runs mix memoized, volatile, and pure-but-blocked
					// (pure over a volatile dep) read paths.
					it.Pure = rng.Float64() < 0.5
				case p < 0.70:
					it.Mech = core.PeriodicMechanism
					it.Window = []clock.Duration{3, 5, 7, 10}[rng.Intn(4)]
				case p < 0.88:
					it.Mech = core.TriggeredMechanism
				default:
					// A delta aggregate: triggered, maintained through the
					// incremental pair channel when possible. The mix spans
					// invertible (sum/count/mean) and non-invertible (min)
					// forms and small rebase intervals, so every fallback
					// row of the delta contract is exercised by the seeds.
					it.Mech = core.TriggeredMechanism
					it.Agg = []string{"sum", "count", "mean", "min"}[rng.Intn(4)]
					it.Rebase = []int{-1, 0, 2, 3}[rng.Intn(4)]
				}
				if it.Agg != "" {
					it.Deps = genAggDeps(rng, w, ri)
				} else {
					it.Deps = genDeps(rng, w, ri, j)
				}
				if it.Agg == "" && it.Mech != core.StaticMechanism && rng.Float64() < 0.5 {
					// Migratable between all three dynamic mechanisms.
					it.Adapt = AdaptFull
					if it.Mech != core.OnDemandMechanism {
						// Adaptable items roll purity too: it decides the
						// access-time term of their on-demand form (and its
						// memo eligibility after a migration).
						it.Pure = rng.Float64() < 0.5
					}
					if it.Window == 0 {
						it.Window = []clock.Duration{3, 5, 7, 10}[rng.Intn(4)]
					}
				}
			}
			if it.Mech == core.TriggeredMechanism || rng.Float64() < 0.2 {
				for _, ev := range []string{"e0", "e1"} {
					if rng.Float64() < 0.5 {
						it.Events = append(it.Events, ev)
					}
				}
			}
			reg.Items = append(reg.Items, it)
		}
	}

	// --- Op script.
	for len(w.Ops) < cfg.Ops {
		w.Ops = append(w.Ops, genOp(rng, w, cfg))
	}
	return w
}

// genDeps draws the dependencies of item j of registry ri, acyclic by
// construction: Self deps point at lower item indices, Input deps at
// lower registry indices, and Module deps at module items that only
// ever depend on themselves.
func genDeps(rng *rand.Rand, w *Workload, ri, j int) []DepSpec {
	reg := &w.Regs[ri]
	isModule := reg.Parent >= 0
	var deps []DepSpec
	n := rng.Intn(3) // 0..2
	for d := 0; d < n; d++ {
		if isModule {
			// Module items depend only on earlier module-local items.
			deps = append(deps, DepSpec{Sel: SelSelf, Kind: core.Kind(fmt.Sprintf("k%d", rng.Intn(j)))})
			continue
		}
		switch p := rng.Float64(); {
		case p < 0.35:
			deps = append(deps, DepSpec{Sel: SelSelf, Kind: core.Kind(fmt.Sprintf("k%d", rng.Intn(j)))})
		case p < 0.60 && len(reg.Inputs) > 0:
			idx := rng.Intn(len(reg.Inputs))
			// Any item of the input registry: the input has a lower
			// registry index, so the edge cannot close a cycle. Use a
			// low item index so it exists in every generated registry.
			deps = append(deps, DepSpec{Sel: SelInput, Index: idx, Kind: core.Kind(fmt.Sprintf("k%d", rng.Intn(2)))})
		case p < 0.75 && len(reg.Inputs) > 0:
			deps = append(deps, DepSpec{Sel: SelEachInput, Kind: "k0"})
		case p < 0.90 && moduleOf(w, ri) >= 0:
			mk := rng.Intn(2) // module registries always have >= 2 items
			deps = append(deps, DepSpec{Sel: SelModule, Name: "m", Kind: core.Kind(fmt.Sprintf("k%d", mk)),
				Optional: rng.Float64() < 0.5})
		default:
			// An optional selector that resolves to nothing exercises
			// the empty-dependency-group path.
			deps = append(deps, DepSpec{Sel: SelModule, Name: "nope", Kind: "k0", Optional: true})
		}
	}
	return deps
}

// genAggDeps draws the fan-in of a delta aggregate: only "k0" items —
// dependency-free, exactly-representable values (integer static bases
// and integer-encoded periodic windows) — so the incremental
// accumulator and a from-scratch fold are bit-identical and the
// lockstep drivers can compare values exactly. Float-inexact sources
// would make delta-vs-fold equality depend on operation order.
// Duplicate edges (the same k0 drawn twice) exercise per-edge pair
// multiplicity.
func genAggDeps(rng *rand.Rand, w *Workload, ri int) []DepSpec {
	reg := &w.Regs[ri]
	n := 1 + rng.Intn(3) // 1..3
	deps := make([]DepSpec, 0, n)
	for d := 0; d < n; d++ {
		p := rng.Float64()
		switch {
		case p < 0.45 || len(reg.Inputs) == 0 || reg.Parent >= 0:
			deps = append(deps, DepSpec{Sel: SelSelf, Kind: "k0"})
		case p < 0.75:
			deps = append(deps, DepSpec{Sel: SelInput, Index: rng.Intn(len(reg.Inputs)), Kind: "k0"})
		default:
			deps = append(deps, DepSpec{Sel: SelEachInput, Kind: "k0"})
		}
	}
	return deps
}

// deltaSpecFor materializes the core delta spec of an aggregate item.
// Shared by the system under test and the reference model, so both
// sides fold with the identical float64 operations.
func deltaSpecFor(it *ItemSpec) *core.DeltaSpec {
	var s *core.DeltaSpec
	switch it.Agg {
	case "sum":
		s = core.DeltaSum()
	case "count":
		s = core.DeltaCount()
	case "mean":
		s = core.DeltaMean()
	case "min":
		s = core.DeltaMin()
	default:
		panic("modelcheck: unknown aggregate " + it.Agg)
	}
	s.RebaseEvery = it.Rebase
	return s
}

// moduleOf returns the registry index of ri's module, or -1.
func moduleOf(w *Workload, ri int) int {
	for i, r := range w.Regs {
		if r.Parent == ri {
			return i
		}
	}
	return -1
}

// genOp draws one workload operation.
func genOp(rng *rand.Rand, w *Workload, cfg Config) Op {
	randomItem := func() (int, core.Kind) {
		ri := rng.Intn(len(w.Regs))
		return ri, w.Regs[ri].Items[rng.Intn(len(w.Regs[ri].Items))].Kind
	}
	p := rng.Float64()
	if cfg.Concurrent {
		switch {
		case p < 0.30:
			ri, k := randomItem()
			return Op{Kind: OpSubscribe, Reg: ri, Item: k}
		case p < 0.55:
			return Op{Kind: OpUnsubscribe, Arg: int64(rng.Intn(1 << 16))}
		case p < 0.65:
			ri := rng.Intn(len(w.Regs))
			return Op{Kind: OpFireEvent, Reg: ri, Event: []string{"e0", "e1"}[rng.Intn(2)]}
		case p < 0.75:
			ri, k := randomItem()
			return Op{Kind: OpNotifyChanged, Reg: ri, Item: k}
		case p < 0.90:
			ri, k := randomItem()
			return Op{Kind: OpRead, Reg: ri, Item: k}
		default:
			return Op{Kind: OpAdvance, Arg: int64(1 + rng.Intn(12))}
		}
	}
	switch {
	case p < 0.22:
		ri, k := randomItem()
		if rng.Float64() < 0.05 {
			k = "zzz" // unknown item: error-path equality
		}
		return Op{Kind: OpSubscribe, Reg: ri, Item: k}
	case p < 0.42:
		return Op{Kind: OpUnsubscribe, Arg: int64(rng.Intn(1 << 16))}
	case p < 0.57:
		d := int64(1 + rng.Intn(12))
		if rng.Float64() < 0.1 {
			d = int64(20 + rng.Intn(40)) // skip several windows at once
		}
		return Op{Kind: OpAdvance, Arg: d}
	case p < 0.67:
		ri := rng.Intn(len(w.Regs))
		return Op{Kind: OpFireEvent, Reg: ri, Event: []string{"e0", "e1"}[rng.Intn(2)]}
	case p < 0.77:
		ri, k := randomItem()
		return Op{Kind: OpNotifyChanged, Reg: ri, Item: k}
	case p < 0.85:
		ri, k := randomItem()
		return Op{Kind: OpRead, Reg: ri, Item: k}
	case p < 0.93:
		// Live mechanism migration. The target is any random item — most
		// draws hit migratable included items, the rest pin the error
		// classes (not included, no AdaptSpec, aggregate, missing form).
		// A zero window exercises the AdaptSpec default-window fallback.
		ri, k := randomItem()
		mech := int64(1 + rng.Intn(3))
		var win int64
		if rng.Float64() >= 0.3 {
			win = int64([]clock.Duration{3, 5, 7, 10}[rng.Intn(4)])
		}
		return Op{Kind: OpMigrate, Reg: ri, Item: k, Arg: mech | win<<8}
	case p < 0.96:
		ri, k := randomItem()
		return Op{Kind: OpRedefine, Reg: ri, Item: k}
	default:
		// Module churn: re-attach a random module registry, if any.
		var mods []int
		for i, r := range w.Regs {
			if r.Parent >= 0 {
				mods = append(mods, i)
			}
		}
		if len(mods) == 0 {
			ri, k := randomItem()
			return Op{Kind: OpRead, Reg: ri, Item: k}
		}
		return Op{Kind: OpAttachModule, Reg: mods[rng.Intn(len(mods))]}
	}
}

// toDepRef converts a DSL dependency to a core.DepRef.
func toDepRef(d DepSpec) core.DepRef {
	var sel core.Selector
	switch d.Sel {
	case SelSelf:
		sel = core.Self()
	case SelInput:
		sel = core.Input(d.Index)
	case SelEachInput:
		sel = core.EachInput()
	case SelModule:
		sel = core.Module(d.Name)
	}
	return core.DepRef{Target: sel, Kind: d.Kind, Optional: d.Optional}
}
