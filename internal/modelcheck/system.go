package modelcheck

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
)

// ikey identifies one workload item: the registry's index in
// Workload.Regs plus the item kind.
type ikey struct {
	reg  int
	kind core.Kind
}

func (k ikey) String() string { return fmt.Sprintf("r%d/%s", k.reg, k.kind) }

// Faults configures the fault-injection layer of a System. Each map is
// keyed by workload item; nil maps inject nothing.
type Faults struct {
	// PanicBuild makes the item's Build panic.
	PanicBuild map[ikey]bool
	// FailBuild makes the item's Build return an error.
	FailBuild map[ikey]bool
	// PanicPeriodic makes every periodic window computation of the
	// item after the initial one panic.
	PanicPeriodic map[ikey]bool
	// BlockPeriodic makes periodic window computations of the item
	// block until the channel is closed (the "slow updater that
	// outlives its window" scenario; only meaningful on a pool
	// updater, where computations run off the clock goroutine).
	BlockPeriodic map[ikey]chan struct{}
	// HangPeriodic makes periodic window computations of the item hang
	// while the fault is engaged. Pair with core.WithComputeDeadline +
	// core.WithBreaker: each hung computation times out, counts a
	// breaker failure, and eventually quarantines the item.
	HangPeriodic map[ikey]*HangFault
	// FlapPeriodic makes periodic window computations of the item
	// panic in bursts, driving repeated breaker trip/recover cycles.
	FlapPeriodic map[ikey]*FlapFault
}

// HangFault is a switchable hung-compute injector: while engaged,
// every faulted computation blocks at the gate until Heal releases
// them all. Caught counts computations that reached the gate while
// engaged, letting a test synchronize with a pool worker entering the
// hang before it advances the clock past the compute deadline.
type HangFault struct {
	mu      sync.Mutex
	release chan struct{} // non-nil while engaged
	caught  atomic.Int32
}

// NewHangFault returns a disengaged hung-compute injector.
func NewHangFault() *HangFault { return &HangFault{} }

// Engage makes subsequent faulted computations hang.
func (f *HangFault) Engage() {
	f.mu.Lock()
	if f.release == nil {
		f.release = make(chan struct{})
	}
	f.mu.Unlock()
}

// Heal releases every hung computation and stops hanging new ones.
func (f *HangFault) Heal() {
	f.mu.Lock()
	if f.release != nil {
		close(f.release)
		f.release = nil
	}
	f.mu.Unlock()
}

// Caught reports how many computations have entered the gate while
// the fault was engaged (released ones included).
func (f *HangFault) Caught() int { return int(f.caught.Load()) }

func (f *HangFault) gate() {
	f.mu.Lock()
	ch := f.release
	f.mu.Unlock()
	if ch == nil {
		return
	}
	f.caught.Add(1)
	<-ch
}

// FlapFault is a flapping-compute injector: after Skip healthy
// computations, each cycle is Burst consecutive panics followed by
// one success. Paired with a breaker whose FailureThreshold equals
// Burst, every burst trips the breaker and the next computation — the
// recovery probe — closes it again, driving repeated quarantine
// entry/exit.
type FlapFault struct {
	Skip  int // initial computations that succeed
	Burst int // consecutive panics per cycle

	n atomic.Int64
}

// step advances the flap sequence by one computation and reports
// whether it must panic.
func (f *FlapFault) step() bool {
	i := f.n.Add(1)
	if i <= int64(f.Skip) {
		return false
	}
	return (i-int64(f.Skip)-1)%int64(f.Burst+1) < int64(f.Burst)
}

// WindowLog records the window sequence one periodic handler instance
// computed. The Figure 4 isolation condition requires the windows to
// tile time: start at the subscription instant with an empty window,
// then each window begins exactly where the previous ended.
type WindowLog struct {
	Item ikey

	mu   sync.Mutex
	wins [][2]clock.Time
}

func (l *WindowLog) add(start, end clock.Time) {
	l.mu.Lock()
	l.wins = append(l.wins, [2]clock.Time{start, end})
	l.mu.Unlock()
}

// Windows returns a copy of the recorded window sequence.
func (l *WindowLog) Windows() [][2]clock.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][2]clock.Time, len(l.wins))
	copy(out, l.wins)
	return out
}

// System is the real implementation under test, instantiated from a
// workload: one core.Registry per RegSpec, wired and populated with
// deterministic item definitions whose value semantics the reference
// model mirrors exactly.
type System struct {
	Wl   *Workload
	Clk  *clock.Virtual
	Env  *core.Env
	Regs []*core.Registry

	faults *Faults

	mu   sync.Mutex
	logs []*WindowLog
}

// NewSystem builds the system under test. updater may be nil for the
// deterministic inline updater; pass a pool updater for concurrent
// stress. faults may be nil. extra env options (e.g. core.WithBreaker,
// core.WithComputeDeadline for the degraded-mode fault scenarios) are
// applied after the updater.
func NewSystem(wl *Workload, updater core.Updater, faults *Faults, extra ...core.EnvOption) *System {
	vc := clock.NewVirtual()
	var opts []core.EnvOption
	if updater != nil {
		opts = append(opts, core.WithUpdater(updater))
	}
	opts = append(opts, extra...)
	if faults == nil {
		faults = &Faults{} // every map nil: nothing injected
	}
	s := &System{Wl: wl, Clk: vc, Env: core.NewEnv(vc, opts...), faults: faults}

	for _, spec := range wl.Regs {
		s.Regs = append(s.Regs, s.Env.NewRegistry(spec.ID))
	}
	// Neighbor wiring: inputs per spec, outputs derived by reversal.
	outputs := make([][]int, len(wl.Regs))
	for ri, spec := range wl.Regs {
		for _, in := range spec.Inputs {
			outputs[in] = append(outputs[in], ri)
		}
	}
	resolver := func(idxs []int) func() []*core.Registry {
		return func() []*core.Registry {
			out := make([]*core.Registry, len(idxs))
			for i, idx := range idxs {
				out[i] = s.Regs[idx]
			}
			return out
		}
	}
	for ri, spec := range wl.Regs {
		if spec.Parent >= 0 {
			continue
		}
		s.Regs[ri].SetNeighbors(resolver(spec.Inputs), resolver(outputs[ri]))
	}
	for ri, spec := range wl.Regs {
		if spec.Parent >= 0 {
			s.Regs[spec.Parent].AttachModule(spec.ModName, s.Regs[ri])
		}
	}
	for ri, spec := range wl.Regs {
		for _, it := range spec.Items {
			s.Regs[ri].MustDefine(s.definition(ri, it))
		}
	}
	return s
}

// definition builds the core.Definition for one workload item. The
// compute functions implement the deterministic value semantics shared
// with the model:
//
//	static:          Base
//	on-demand:       Base + Σ dep values + 0.001·now  (at access time)
//	on-demand, pure: Base + Σ dep values              (no access-time term)
//	periodic:        start·1e6 + end                  (encodes the window)
//	triggered:       Base + Σ dep values + 0.01·now   (at refresh time)
//	aggregate:       the Delta spec's fold over the fan-in (no Base or
//	                 time term, so delta and fold paths compare exactly)
//
// Pure on-demand items carry Definition.Pure, so a memo-enabled env
// (core.WithMemoizedOnDemand) may serve them from cache; their value
// depends only on the dependency values, so memoization is invisible in
// the value domain and the model needs no memo awareness.
//
// Periodic values encode their exact window boundaries, so value
// equivalence against the model verifies the window sequence itself.
func (s *System) definition(ri int, it ItemSpec) *core.Definition {
	k := ikey{ri, it.Kind}
	deps := make([]core.DepRef, len(it.Deps))
	for i, d := range it.Deps {
		deps[i] = toDepRef(d)
	}
	var delta *core.DeltaSpec
	if it.Agg != "" {
		delta = deltaSpecFor(&it)
	}
	return &core.Definition{
		Kind:   it.Kind,
		Deps:   deps,
		Events: it.Events,
		Pure:   it.Pure,
		Delta:  delta,
		Adapt:  adaptSpec(it),
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			if s.faults.PanicBuild[k] {
				panic(fmt.Sprintf("injected: build %v", k))
			}
			if s.faults.FailBuild[k] {
				return nil, fmt.Errorf("injected: build %v failed", k)
			}
			switch it.Mech {
			case core.StaticMechanism:
				return core.NewStatic(it.Base), nil
			case core.OnDemandMechanism:
				return core.NewOnDemand(it.onDemand(ctx)), nil
			case core.PeriodicMechanism:
				log := &WindowLog{Item: k}
				s.mu.Lock()
				s.logs = append(s.logs, log)
				s.mu.Unlock()
				// calls is atomic: with compute deadlines an abandoned
				// (hung) computation may still be running when the next
				// one starts, so the closure must be race-free.
				var calls atomic.Int64
				return core.NewPeriodic(it.Window, func(start, end clock.Time) (core.Value, error) {
					if calls.Add(1) > 1 {
						if ch := s.faults.BlockPeriodic[k]; ch != nil {
							<-ch
						}
						if hf := s.faults.HangPeriodic[k]; hf != nil {
							hf.gate()
						}
						if s.faults.PanicPeriodic[k] {
							panic(fmt.Sprintf("injected: periodic %v", k))
						}
						if ff := s.faults.FlapPeriodic[k]; ff != nil && ff.step() {
							panic(fmt.Sprintf("injected: flap %v", k))
						}
					}
					log.add(start, end)
					return encodeWindow(start, end), nil
				}), nil
			case core.TriggeredMechanism:
				if it.Agg != "" {
					// Delta aggregate: the handler's value is the declared
					// fold over the fan-in, maintained through the pair
					// channel when the exactness contract holds.
					return core.NewDeltaAggregate(ctx)
				}
				return core.NewTriggered(it.triggered(ctx)), nil
			default:
				return nil, fmt.Errorf("modelcheck: bad mechanism %v", it.Mech)
			}
		},
	}
}

// adaptSpec materializes the migration surface of an adaptable
// workload item: the same compute forms as the Build (system/model
// shared), constructed over the same resolved dependency handles.
// AdaptExact omits the triggered form — its 0.01·now term is not
// exactly representable, and AdaptExact items feed delta-aggregate
// fan-ins that must stay bit-exact. The periodic form computes plain
// window encodings without a WindowLog or fault hooks: each migrated
// handler instance starts a fresh window sequence, which the
// per-instance tiling check does not span.
func adaptSpec(it ItemSpec) *core.AdaptSpec {
	if it.Adapt == AdaptNone {
		return nil
	}
	spec := &core.AdaptSpec{
		OnDemand: it.onDemand,
		Periodic: func(*core.BuildContext) core.WindowComputeFunc {
			return func(start, end clock.Time) (core.Value, error) {
				return encodeWindow(start, end), nil
			}
		},
		Window: it.Window,
		Pure:   it.Pure,
	}
	if it.Adapt == AdaptFull {
		spec.Triggered = it.triggered
	}
	return spec
}

// onDemand is the on-demand compute form: Base + Σ dep values, plus
// 0.001·now at access time unless the item is pure.
func (it ItemSpec) onDemand(ctx *core.BuildContext) core.ComputeFunc {
	hs := depHandles(ctx)
	return func(now clock.Time) (core.Value, error) {
		v, err := sumDeps(hs)
		if err != nil {
			return nil, err
		}
		if it.Pure {
			return it.Base + v, nil
		}
		return it.Base + v + 0.001*float64(now), nil
	}
}

// triggered is the triggered compute form: Base + Σ dep values +
// 0.01·now at refresh time.
func (it ItemSpec) triggered(ctx *core.BuildContext) core.ComputeFunc {
	hs := depHandles(ctx)
	return func(now clock.Time) (core.Value, error) {
		v, err := sumDeps(hs)
		if err != nil {
			return nil, err
		}
		return it.Base + v + 0.01*float64(now), nil
	}
}

// encodeWindow is the canonical value a periodic workload item
// publishes for the window [start, end): both boundaries are encoded,
// so the equivalence check verifies the exact window sequence (the
// isolation condition of Figure 4).
func encodeWindow(start, end clock.Time) float64 {
	return float64(start)*1e6 + float64(end)
}

// depHandles returns the dependency handles in declaration order, taken
// while ctx is valid: the compute closures keep the handles, not ctx.
func depHandles(ctx *core.BuildContext) []*core.Handle {
	var hs []*core.Handle
	for i := 0; i < ctx.NumDeps(); i++ {
		hs = append(hs, ctx.DepGroup(i)...)
	}
	return hs
}

// sumDeps folds the dependency handles in declaration order. The model
// performs the identical float64 additions in the identical order, so
// values compare exactly.
func sumDeps(hs []*core.Handle) (float64, error) {
	total := 0.0
	for _, h := range hs {
		f, err := h.Float()
		if err != nil {
			return 0, err
		}
		total += f
	}
	return total, nil
}

// WindowLogs returns every periodic window log created so far
// (including logs of handlers since removed).
func (s *System) WindowLogs() []*WindowLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*WindowLog, len(s.logs))
	copy(out, s.logs)
	return out
}

// BaseRegs returns the base (non-module) registries — the roots
// passed to core.VerifyIntegrity, which walks modules itself.
func (s *System) BaseRegs() []*core.Registry {
	var out []*core.Registry
	for ri, spec := range s.Wl.Regs {
		if spec.Parent < 0 {
			out = append(out, s.Regs[ri])
		}
	}
	return out
}
