package pipes

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/core"
)

// Adaptive-maintenance surface: metadata items that declare an
// AdaptSpec (all their maintenance forms) can be live-migrated between
// mechanisms while subscribed — on-demand, periodic (any window), and
// triggered — and a closed-loop controller can drive those migrations
// from each item's observed access-vs-update economics (see
// internal/adapt for the cost model and damping, internal/core for the
// migration primitive's equivalence contract).
type (
	// AdaptSpec declares every maintenance form of a migratable item
	// (used in a Definition registered on a node's Metadata registry).
	AdaptSpec = core.AdaptSpec
	// Mechanism identifies a maintenance mechanism.
	Mechanism = core.Mechanism
	// AdaptConfig parameterizes the adaptive-maintenance controller.
	AdaptConfig = adapt.Config
	// Migration describes one performed mechanism change.
	Migration = adapt.Migration
)

// Re-exported maintenance mechanisms.
const (
	StaticMechanism    = core.StaticMechanism
	OnDemandMechanism  = core.OnDemandMechanism
	PeriodicMechanism  = core.PeriodicMechanism
	TriggeredMechanism = core.TriggeredMechanism
)

// ErrNotMigratable reports a migration attempt on an item that did not
// declare an AdaptSpec (or declared no form for the target mechanism).
var ErrNotMigratable = core.ErrNotMigratable

// WithAdaptiveMaintenance arms closed-loop adaptive maintenance: items
// registered for autotuning (Stream.Autotune) are sampled every
// cfg.Interval time units and live-migrated to whichever maintenance
// mechanism their observed read and update rates make cheapest, with
// hysteresis and dwell damping against flapping. The zero AdaptConfig
// selects the documented defaults. The sampling ticker reschedules
// itself every cfg.Interval once the first item is autotuned.
func WithAdaptiveMaintenance(cfg AdaptConfig) SystemOption {
	return func(s *System) { s.adaptCfg = &cfg }
}

// Autotune hands one of the node's metadata items to the adaptive-
// maintenance controller (WithAdaptiveMaintenance must be armed). The
// item must be included (subscribed) and must declare an AdaptSpec.
// slo is the item's freshness bound (0 inherits the controller
// default, which itself defaults to always-fresh, ruling periodic
// out); cost is the item's relative recompute cost hint (0 inherits
// the default).
func (st *Stream) Autotune(kind Kind, slo Duration, cost float64) error {
	return st.sys.autotune(st.node.Registry(), kind, slo, cost)
}

func (s *System) autotune(reg *Registry, kind Kind, slo Duration, cost float64) error {
	if s.adaptCfg == nil {
		return fmt.Errorf("pipes: Autotune(%s) without WithAdaptiveMaintenance", kind)
	}
	ctrl, ok := s.adaptCtrls[reg]
	if !ok {
		if s.adaptCtrls == nil {
			s.adaptCtrls = make(map[*Registry]*adapt.Controller)
		}
		ctrl = adapt.New(reg, *s.adaptCfg)
		s.adaptCtrls[reg] = ctrl
	}
	if err := ctrl.Track(kind, slo, cost); err != nil {
		return err
	}
	if !s.adaptArmed {
		s.adaptArmed = true
		interval := ctrl.Config().Interval
		var tick func(Time)
		tick = func(Time) {
			for _, c := range s.adaptCtrls {
				if ms, _ := c.Step(); len(ms) > 0 {
					s.adaptLog = append(s.adaptLog, ms...)
				}
			}
			s.vc.After(interval, tick)
		}
		s.vc.After(interval, tick)
	}
	return nil
}

// AdaptiveMigrations returns every mechanism change the adaptive-
// maintenance loop has performed so far, in order.
func (s *System) AdaptiveMigrations() []Migration {
	return append([]Migration(nil), s.adaptLog...)
}
