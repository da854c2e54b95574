// Package pipes is the public API of the stream processing system and
// its dynamic metadata management framework — a Go reproduction of the
// PIPES infrastructure described in "Dynamic Metadata Management for
// Scalable Stream Processing Systems" (ICDE 2007).
//
// A System owns a query graph over a deterministic virtual clock.
// Streams are composed fluently:
//
//	sys := pipes.NewSystem()
//	temps := sys.Source("temps", schema, pipes.NewConstantRate(0, 10, 0), 0.1)
//	hot := temps.Filter("hot", func(t pipes.Tuple) bool { return t[0].(int) > 30 })
//	hot.Sink("alerts", func(e pipes.Element) { ... })
//	sys.Run(10_000)
//
// Every node provides metadata items on demand through a
// publish-subscribe registry (schema, rates, selectivity, CPU and
// memory usage, ...). Subscribing creates the item's handler and
// transitively includes its dependencies; unsubscribing removes them
// again. Only subscribed metadata is ever computed and maintained:
//
//	rate, _ := hot.Subscribe(pipes.KindInputRate)
//	defer rate.Unsubscribe()
//	v, _ := rate.Float()
package pipes

import (
	"net/http"

	"repro/internal/adapt"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/monitor"
	"repro/internal/ops"
	"repro/internal/persist"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Re-exported fundamental types, so applications only import pipes.
type (
	// Time is a point in simulated time.
	Time = clock.Time
	// Duration is a span of simulated time.
	Duration = clock.Duration
	// Tuple is an element payload.
	Tuple = stream.Tuple
	// Value is one attribute value.
	Value = stream.Value
	// Element is a stream element with validity interval.
	Element = stream.Element
	// Schema describes a stream's attributes.
	Schema = stream.Schema
	// Field describes one attribute.
	Field = stream.Field
	// Generator produces stream arrivals.
	Generator = stream.Generator
	// Kind names a metadata item.
	Kind = core.Kind
	// Subscription is a consumer's claim on a metadata item.
	Subscription = core.Subscription
	// Registry manages one node's metadata.
	Registry = core.Registry
	// Recorder samples metadata into time series.
	Recorder = monitor.Recorder
	// AggFunc is an incremental windowed aggregate.
	AggFunc = ops.AggFunc
	// BreakerPolicy configures the per-item circuit breaker (see
	// WithBreaker).
	BreakerPolicy = core.BreakerPolicy
	// HealthState is an item's degraded-operation state.
	HealthState = core.HealthState
	// HealthSnapshot is a point-in-time view of an item's breaker
	// state, obtained from Registry.Health.
	HealthSnapshot = core.HealthSnapshot
)

// Re-exported metadata-definition building blocks: a custom item is a
// Definition registered with Registry.Define, whose Build returns one
// of the three handler forms.
type (
	// Definition declares a metadata item.
	Definition = core.Definition
	// DepRef names one dependency edge of a Definition.
	DepRef = core.DepRef
	// BuildContext gives a Definition's Build its resolved
	// dependencies.
	BuildContext = core.BuildContext
	// Handler maintains one included metadata item.
	Handler = core.Handler
	// ComputeFunc computes an item's value at an instant.
	ComputeFunc = core.ComputeFunc
	// WindowComputeFunc computes a periodic item's value over one
	// window [start, end).
	WindowComputeFunc = core.WindowComputeFunc
)

var (
	// NewOnDemand recomputes the item on every read (memoized when the
	// Definition declares Pure).
	NewOnDemand = core.NewOnDemand
	// NewPeriodic recomputes the item once per window.
	NewPeriodic = core.NewPeriodic
	// NewTriggered recomputes the item whenever a dependency or one of
	// its Events fires.
	NewTriggered = core.NewTriggered
	// Dep builds a dependency reference for a Definition.
	Dep = core.Dep
	// SelfNode selects a dependency on the defining node itself.
	SelfNode = core.Self
)

// Re-exported degraded-operation states and sentinels.
const (
	Healthy     = core.Healthy
	Degraded    = core.Degraded
	Quarantined = core.Quarantined
	Probing     = core.Probing
)

var (
	// ErrStale tags reads served from a quarantined item's last-good
	// value: errors.Is(err, ErrStale) detects it, and the returned
	// value is still usable.
	ErrStale = core.ErrStale
	// ErrComputeTimeout reports a metadata computation that exceeded
	// its deadline.
	ErrComputeTimeout = core.ErrComputeTimeout
	// DefaultBreakerPolicy is the breaker configuration WithBreaker
	// falls back to.
	DefaultBreakerPolicy = core.DefaultBreakerPolicy
)

// Re-exported generator constructors.
var (
	// NewConstantRate emits one element every interval units.
	NewConstantRate = stream.NewConstantRate
	// NewPoisson emits a Poisson arrival process.
	NewPoisson = stream.NewPoisson
	// NewBursty emits an on/off burst process.
	NewBursty = stream.NewBursty
	// NewZipfValues draws Zipf-distributed keys.
	NewZipfValues = stream.NewZipfValues
)

// Re-exported trace recording and replay: a Trace is a Generator that
// replays recorded arrivals (Reset rewinds it).
type Trace = stream.Trace

var (
	// Record drains up to limit arrivals (0: all) of a bounded
	// generator into a Trace.
	Record = stream.Record
	// ReadTraceCSV loads a Trace written by Trace.WriteCSV.
	ReadTraceCSV = stream.ReadTraceCSV
)

// Re-exported aggregate constructors.
var (
	// NewCount counts live elements.
	NewCount = ops.NewCount
	// NewSum sums a field.
	NewSum = ops.NewSum
	// NewAvg averages a field.
	NewAvg = ops.NewAvg
	// NewVar computes a field's population variance.
	NewVar = ops.NewVar
	// NewMin tracks a field's minimum.
	NewMin = ops.NewMin
)

// Re-exported metadata kinds of the operator library.
const (
	KindSchema          = ops.KindSchema
	KindElementSize     = ops.KindElementSize
	KindCountIn         = ops.KindCountIn
	KindCountOut        = ops.KindCountOut
	KindInputRate       = ops.KindInputRate
	KindOutputRate      = ops.KindOutputRate
	KindAvgInputRate    = ops.KindAvgInputRate
	KindAvgOutputRate   = ops.KindAvgOutputRate
	KindSelectivity     = ops.KindSelectivity
	KindMeasuredCPU     = ops.KindMeasuredCPU
	KindStateSize       = ops.KindStateSize
	KindMemUsage        = ops.KindMemUsage
	KindWindowSize      = ops.KindWindowSize
	KindDropProbability = ops.KindDropProbability
	KindQoSLatency      = ops.KindQoSLatency
	KindQoSPriority     = ops.KindQoSPriority
	KindImplType        = ops.KindImplType
	KindDeclaredRate    = ops.KindDeclaredRate
	KindPredicateCost   = ops.KindPredicateCost
	KindAvgLatency      = ops.KindAvgLatency
	KindFanout          = ops.KindFanout
)

// Re-exported cost-model kinds (available after InstallCostModel).
const (
	KindEstValidity   = costmodel.KindEstValidity
	KindEstOutputRate = costmodel.KindEstOutputRate
	KindEstCPU        = costmodel.KindEstCPU
	KindEstMem        = costmodel.KindEstMem
)

// WriteStats renders a framework stats snapshot (Env().Stats().Snapshot(),
// or a WatchClient's Stats) as the report, one "group: label=value ..."
// line per group.
var WriteStats = monitor.WriteStats

// System owns one query graph, its metadata environment, and its
// execution engine, all on a shared deterministic virtual clock. Run
// advances the clock as a simulation; Serve paces it with the wall
// clock.
type System struct {
	vc    *clock.Virtual
	env   *core.Env
	graph *graph.Graph
	eng   *engine.Engine

	statWindow Duration
	engOpts    []engine.Option
	envOpts    []core.EnvOption
	bindings   []func(e *engine.Engine)
	pool       core.Updater

	adaptCfg   *adapt.Config
	adaptCtrls map[*Registry]*adapt.Controller
	adaptArmed bool
	adaptLog   []Migration

	// Durability (see durability.go): configured by WithDurability,
	// activated by OpenDurability once the graph exists.
	durDir  string
	durOpts DurabilityOptions
	plane   *persist.Plane

	// hasBreaker tracks an explicit WithBreaker, so WithDurability can
	// arm the default breaker only when the caller did not choose one.
	hasBreaker bool

	// hub is the system's watch fan-out hub, created on first use (see
	// watch.go).
	hub *WatchHub

	// Serving (see serve.go): the HTTP server, and the pacing
	// goroutine's stop signal and exit.
	hs       *http.Server
	stopPace chan struct{}
	paced    chan struct{}
}

// SystemOption configures a System.
type SystemOption func(*System)

// WithStatWindow sets the default periodic update window for measured
// metadata (default 100 time units). It calibrates the freshness vs.
// overhead trade-off.
func WithStatWindow(w Duration) SystemOption {
	return func(s *System) { s.statWindow = w }
}

// WithUpdaterPool runs periodic metadata updates on k worker
// goroutines instead of inline (for large query graphs). A queueCap
// above 0 bounds the pool's task queue: under backpressure, queued
// periodic scope batches superseded by a newer boundary are coalesced
// (counted in Stats.ShedTicks), while triggered propagations are never
// dropped. A queueCap of 0 or less leaves the queue unbounded.
func WithUpdaterPool(k, queueCap int) SystemOption {
	return func(s *System) { s.pool = core.NewPoolUpdater(k, core.WithQueueCapacity(queueCap)) }
}

// WithComputeDeadline bounds every asynchronous metadata computation
// (pool-updater maintenance work) to d time units; a compute that
// overruns publishes ErrComputeTimeout and its late result is fenced
// off. Inert on the inline updater.
func WithComputeDeadline(d Duration) SystemOption {
	return func(s *System) { s.envOpts = append(s.envOpts, core.WithComputeDeadline(d)) }
}

// WithBreaker arms a per-item circuit breaker: an item whose compute
// panics or times out repeatedly is quarantined — unscheduled, serving
// its last-good value tagged ErrStale — and re-probed on exponential
// backoff until it recovers. A zero policy selects
// DefaultBreakerPolicy.
func WithBreaker(p BreakerPolicy) SystemOption {
	return func(s *System) {
		s.hasBreaker = true
		s.envOpts = append(s.envOpts, core.WithBreaker(p))
	}
}

// WithScheduling switches execution to budget mode: every tick time
// units the named strategy ("roundrobin", "fifo", "chain") services up
// to budget elements.
func WithScheduling(strategy string, budget int, tick Duration) SystemOption {
	var sc sched.Scheduler
	switch strategy {
	case "roundrobin":
		sc = sched.NewRoundRobin()
	case "fifo":
		sc = sched.NewFIFO()
	case "chain":
		sc = sched.NewChain()
	default:
		panic("pipes: unknown scheduling strategy " + strategy)
	}
	return func(s *System) {
		s.engOpts = append(s.engOpts, engine.WithScheduler(sc, budget, tick))
	}
}

// NewSystem creates an empty system on a fresh virtual clock.
func NewSystem(opts ...SystemOption) *System {
	s := &System{vc: clock.NewVirtual(), statWindow: ops.DefaultStatWindow}
	for _, o := range opts {
		o(s)
	}
	// Declaring Pure is what memoizes an on-demand item: the memo only
	// engages for items whose Definition (or AdaptSpec) says Pure.
	envOpts := []core.EnvOption{core.WithMemoizedOnDemand()}
	if s.pool != nil {
		envOpts = append(envOpts, core.WithUpdater(s.pool))
	}
	if s.durDir != "" && !s.hasBreaker {
		// Durable systems need the quarantine machinery: recovery serves
		// checkpointed values stale through it. An explicit WithBreaker
		// (appended below) overrides this default.
		envOpts = append(envOpts, core.WithBreaker(DefaultBreakerPolicy))
	}
	envOpts = append(envOpts, s.envOpts...)
	s.env = core.NewEnv(s.vc, envOpts...)
	s.graph = graph.New(s.env)
	return s
}

// registries lists every node's registry in graph order.
func (s *System) registries() []*Registry {
	var regs []*Registry
	for _, n := range s.graph.Nodes() {
		regs = append(regs, n.Registry())
	}
	return regs
}

// Graph exposes the underlying query graph.
func (s *System) Graph() *graph.Graph { return s.graph }

// Env exposes the metadata environment (stats, clock).
func (s *System) Env() *core.Env { return s.env }

// Now returns the current simulated time.
func (s *System) Now() Time { return s.vc.Now() }

// InstallCostModel registers the Figure 3 cost-model metadata
// (estimated rates, validities, CPU and memory usage) on every
// supported node. Call it after the query graph is built.
func (s *System) InstallCostModel() { costmodel.Install(s.graph) }

// Run advances the simulation to time t.
func (s *System) Run(t Time) {
	s.ensureEngine()
	s.eng.RunUntil(t)
}

// Engine exposes the execution engine (queue statistics etc.); it is
// created on first use.
func (s *System) Engine() *engine.Engine {
	s.ensureEngine()
	return s.eng
}

func (s *System) ensureEngine() {
	if s.eng != nil {
		return
	}
	s.eng = engine.New(s.graph, s.vc, s.engOpts...)
	for _, b := range s.bindings {
		b(s.eng)
	}
	s.eng.Start()
}

// NewRecorder creates a metadata time-series recorder sampling every
// period time units.
func (s *System) NewRecorder(period Duration) *Recorder {
	return monitor.NewRecorder(s.env, period)
}

// Inventory reports each node's available and included metadata items.
func (s *System) Inventory() string {
	return monitor.FormatInventory(monitor.Inventory(s.graph))
}

// DependencyDOT renders the live metadata dependency graph (every
// included item and its dependency edges, across nodes and modules) in
// Graphviz DOT format — the Figure 3 picture for the running system.
func (s *System) DependencyDOT() string {
	return monitor.DependencyDOT(s.graph)
}

// SnapshotJSON captures every included metadata item of every node and
// module with its current value as indented JSON — the raw material of
// the system-profiling application.
func (s *System) SnapshotJSON() ([]byte, error) {
	return monitor.SnapshotJSON(s.graph)
}

// NewWindowAdaptor creates an adaptive window manager keeping the
// stream's node (a join) at or below the estimated-memory bound.
func (s *System) NewWindowAdaptor(join *Stream, windows []*Stream, bound float64, period Duration) (*resource.WindowAdaptor, error) {
	ws := make([]*ops.TimeWindow, len(windows))
	for i, w := range windows {
		tw, ok := w.node.(*ops.TimeWindow)
		if !ok {
			panic("pipes: NewWindowAdaptor requires time-window streams")
		}
		ws[i] = tw
	}
	return resource.NewWindowAdaptor(s.env, join.node.Registry(), ws, bound, period)
}

// NewLoadShedder creates a load shedder adjusting the sampler stream's
// drop probability to keep the monitored stream's load item at or
// below capacity.
func (s *System) NewLoadShedder(monitored *Stream, kind Kind, sampler *Stream, capacity float64, period Duration) (*resource.LoadShedder, error) {
	sm, ok := sampler.node.(*ops.Sampler)
	if !ok {
		panic("pipes: NewLoadShedder requires a sampler stream (use Shed)")
	}
	return resource.NewLoadShedder(s.env, monitored.node.Registry(), kind, sm, capacity, period)
}
