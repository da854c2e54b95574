// Package adapt closes the loop between the metadata framework's
// observability and its mechanism-migration primitive: a Controller
// samples each tracked item's access-vs-update economics
// (core.Registry.AccessStats), prices the alternative maintenance
// mechanisms with the costmodel selection model (costmodel.Choose),
// and live-migrates items whose current mechanism has become
// sufficiently uneconomic (core.Registry.Migrate).
//
// This implements the adaptivity argument of Section 3.2 as a running
// system instead of a design-time choice: hot-read/rarely-changing
// items drift toward triggered (or memoized on-demand) maintenance,
// hot-write/rarely-read items toward on-demand, and items with a
// freshness SLO toward the longest periodic window the SLO admits.
//
// Two dampers keep the loop stable. Hysteresis: a candidate mechanism
// must beat the current one's estimated cost rate by a configured
// fraction, so the controller never migrates on a tie or on noise
// around a break-even workload, and a configuration it has just
// chosen is immediately re-justified (see FuzzMigrationPlan, which
// pins this no-flapping property). Dwell: a freshly migrated item is
// exempt from further migration for MinDwell sampling intervals, so
// rate estimates are always taken against a settled configuration.
package adapt

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// Config parameterizes a Controller. The zero value is usable: every
// field has a documented default applied by New.
type Config struct {
	// Interval is the sampling period between Steps. Default 100 time
	// units.
	Interval clock.Duration

	// Hysteresis is the fractional cost-rate improvement a candidate
	// mechanism must show over the current one before the controller
	// migrates: migrate only if best*(1+Hysteresis) < current.
	// Default 0.2; pass a negative value for no hysteresis.
	Hysteresis float64

	// MinDwell is the number of sampling intervals an item must hold
	// its configuration before it may migrate again. Default 2; pass a
	// negative value for no dwell requirement.
	MinDwell int

	// FreshnessSLO is the default staleness bound for tracked items: a
	// tracked item may serve values up to this old, making periodic
	// maintenance admissible. 0 (the default) demands always-fresh
	// values and rules periodic out. Track can override per item.
	FreshnessSLO clock.Duration

	// MinWindow and MaxWindow clamp the periodic windows the
	// controller will configure. Defaults 10 and 1000.
	MinWindow clock.Duration
	MaxWindow clock.Duration

	// CostHint is the default per-recomputation cost of tracked items
	// (costmodel.Workload.Cost). Only ratios between items matter;
	// default 1. Track can override per item.
	CostHint float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 0.2
	} else if c.Hysteresis < 0 {
		c.Hysteresis = 0
	}
	if c.MinDwell == 0 {
		c.MinDwell = 2
	} else if c.MinDwell < 0 {
		c.MinDwell = 0
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 10
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 1000
	}
	if c.CostHint <= 0 {
		c.CostHint = 1
	}
	return c
}

// Observation is one item's sampled economics over the interval since
// the previous Sample (or since Track).
type Observation struct {
	Kind core.Kind
	// Reads and Updates are rates per time unit over the sample
	// interval: value reads of the item, and publications of its
	// direct dependencies (its own publications for dependency-less
	// source items).
	Reads   float64
	Updates float64
	// Mech and Window describe the item's current configuration.
	Mech   core.Mechanism
	Window clock.Duration
	// Pure reports that the item's on-demand form is memoized: it
	// declares AdaptSpec.Pure, its env memoizes on-demand items
	// (core.WithMemoizedOnDemand), and every on-demand dependency is
	// memoized too (core.Registry.Adaptable). An undeclared or
	// unmemoized form is priced at one compute per read.
	Pure bool
	// Dwell counts completed sampling intervals since the item's last
	// migration (or since Track).
	Dwell int
	// SLO and Cost are the item's effective freshness bound and
	// recompute cost hint.
	SLO  clock.Duration
	Cost float64
}

// Migration is one planned mechanism change.
type Migration struct {
	Kind core.Kind
	From core.Mechanism
	To   core.Mechanism
	// Window is the target update period when To is periodic.
	Window clock.Duration
	// Gain is the estimated cost-rate improvement (current - best).
	Gain float64
}

func (m Migration) String() string {
	if m.To == core.PeriodicMechanism {
		return fmt.Sprintf("%s: %v -> %v(w=%d)", m.Kind, m.From, m.To, m.Window)
	}
	return fmt.Sprintf("%s: %v -> %v", m.Kind, m.From, m.To)
}

type itemState struct {
	slo         clock.Duration
	cost        float64
	lastReads   int64
	lastUpdates uint64
	lastDeps    uint64
	lastTime    clock.Time
	dwell       int
}

// Controller drives adaptive maintenance for one registry. All
// methods are safe for concurrent use; Sample/Plan/Apply are exposed
// separately so tests and benchmarks can drive the loop
// deterministically, while Step runs one full iteration.
type Controller struct {
	reg *core.Registry
	cfg Config

	mu    sync.Mutex
	items map[core.Kind]*itemState
}

// New returns a controller over the registry with defaults applied to
// cfg.
func New(reg *core.Registry, cfg Config) *Controller {
	return &Controller{
		reg:   reg,
		cfg:   cfg.withDefaults(),
		items: make(map[core.Kind]*itemState),
	}
}

// Config returns the controller's effective (default-applied)
// configuration.
func (c *Controller) Config() Config { return c.cfg }

// Track registers an included, migratable item with the controller
// and enables read tracking on it. slo overrides the controller-wide
// FreshnessSLO when positive; cost overrides CostHint when positive.
// Tracking an already-tracked item updates its overrides and resets
// its sampling baseline.
func (c *Controller) Track(kind core.Kind, slo clock.Duration, cost float64) error {
	if _, ok := c.reg.Adaptable(kind); !ok {
		return fmt.Errorf("adapt: %s is not an included migratable item", kind)
	}
	if !c.reg.TrackReads(kind) {
		return fmt.Errorf("adapt: %s is not included", kind)
	}
	reads, updates, _ := c.reg.AccessStats(kind)
	deps, _, _ := c.reg.DepUpdates(kind)
	if slo <= 0 {
		slo = c.cfg.FreshnessSLO
	}
	if cost <= 0 {
		cost = c.cfg.CostHint
	}
	c.mu.Lock()
	c.items[kind] = &itemState{
		slo: slo, cost: cost,
		lastReads: reads, lastUpdates: updates, lastDeps: deps,
		lastTime: c.reg.Env().Now(),
	}
	c.mu.Unlock()
	return nil
}

// Sample reads each tracked item's counters and returns per-item rate
// observations for the elapsed interval, advancing the baselines. An
// item whose interval is empty (no time elapsed) or that is no longer
// included is skipped this round.
func (c *Controller) Sample() []Observation {
	now := c.reg.Env().Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	obs := make([]Observation, 0, len(c.items))
	for kind, st := range c.items {
		reads, updates, ok := c.reg.AccessStats(kind)
		if !ok {
			continue
		}
		elapsed := float64(now - st.lastTime)
		if elapsed <= 0 {
			continue
		}
		deps, ndeps, _ := c.reg.DepUpdates(kind)
		mech, _ := c.reg.Mechanism(kind)
		window, _ := c.reg.Window(kind)
		pure, _ := c.reg.Adaptable(kind)
		st.dwell++
		// The update rate must be mechanism-independent or the loop
		// flaps: an item's own publication version counts what the
		// current mechanism exhibits (nothing for on-demand, the
		// cadence for periodic), so it is only used for dependency-less
		// source items, where input churn IS the item's own event-driven
		// republication. Everything else is priced by how often its
		// inputs published (DepUpdates).
		updDelta := float64(deps - st.lastDeps)
		if ndeps == 0 {
			updDelta = float64(updates - st.lastUpdates)
		}
		o := Observation{
			Kind:    kind,
			Reads:   float64(reads-st.lastReads) / elapsed,
			Updates: updDelta / elapsed,
			Mech:    mech,
			Window:  window,
			Pure:    pure,
			Dwell:   st.dwell,
			SLO:     st.slo,
			Cost:    st.cost,
		}
		st.lastReads, st.lastUpdates, st.lastDeps, st.lastTime = reads, updates, deps, now
		obs = append(obs, o)
	}
	return obs
}

// Plan prices each observation's current mechanism against the
// costmodel's best choice and returns the migrations that clear both
// dampers (hysteresis and dwell). Plan is a pure function of its
// input and the controller's configuration — it reads no controller
// state — so callers can re-plan hypothetical workloads freely.
func (c *Controller) Plan(obs []Observation) []Migration {
	var ms []Migration
	for _, o := range obs {
		if o.Mech == core.StaticMechanism {
			continue
		}
		w := costmodel.Workload{
			Reads: o.Reads, Writes: o.Updates,
			Cost: o.Cost, SLO: o.SLO, Pure: o.Pure,
		}
		best := costmodel.Choose(w, c.cfg.MinWindow, c.cfg.MaxWindow)
		if best.Mech == o.Mech && (best.Mech != core.PeriodicMechanism || best.Window == o.Window) {
			continue
		}
		if o.Dwell < c.cfg.MinDwell {
			continue
		}
		cur := w.Rate(o.Mech, o.Window)
		if best.CostRate*(1+c.cfg.Hysteresis) >= cur {
			continue
		}
		ms = append(ms, Migration{
			Kind: o.Kind, From: o.Mech, To: best.Mech,
			Window: best.Window, Gain: cur - best.CostRate,
		})
	}
	return ms
}

// Apply executes the planned migrations, resetting the dwell of each
// migrated item, and returns how many succeeded. Items excluded since
// planning fail their individual migration without affecting the
// rest; the first error encountered is returned alongside the count.
func (c *Controller) Apply(ms []Migration) (int, error) {
	applied := 0
	var firstErr error
	for _, m := range ms {
		if err := c.reg.Migrate(m.Kind, m.To, m.Window); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("adapt: %s: %w", m.Kind, err)
			}
			continue
		}
		applied++
		c.mu.Lock()
		if st, ok := c.items[m.Kind]; ok {
			st.dwell = 0
		}
		c.mu.Unlock()
	}
	return applied, firstErr
}

// Step runs one controller iteration — sample, plan, apply — and
// returns the migrations it performed (nil on a quiet step).
func (c *Controller) Step() ([]Migration, error) {
	ms := c.Plan(c.Sample())
	if len(ms) == 0 {
		return nil, nil
	}
	n, err := c.Apply(ms)
	if n < len(ms) {
		ms = ms[:n]
	}
	return ms, err
}
