package costmodel

import (
	"repro/internal/clock"
	"repro/internal/core"
)

// Workload characterizes one metadata item's observed access economics
// over a sampling interval, the inputs to the mechanism-selection
// model of Section 3.2: how often the item is read, how often its
// dependencies change, and what one recomputation costs.
type Workload struct {
	// Reads is the observed read rate (accesses per time unit).
	Reads float64
	// Writes is the observed dependency-update rate (changes per time
	// unit).
	Writes float64
	// Cost is the work per recomputation (arbitrary units; only ratios
	// between candidate mechanisms matter, so 1 is a fine default).
	Cost float64
	// SLO is the item's freshness bound: consumers tolerate values up
	// to SLO time units old. 0 means reads must always observe a fresh
	// value, which rules the periodic mechanism out.
	SLO clock.Duration
	// Pure reports that the item's on-demand form is memoizable
	// (Definition.Pure semantics): repeat reads against unchanged
	// dependencies can be served from a dependency-stamped memo.
	Pure bool
}

// decision is the outcome of Choose: the cheapest maintenance
// mechanism for the workload and its estimated steady-state cost.
type decision struct {
	// Mech is the chosen update mechanism.
	Mech core.Mechanism
	// Window is the update period when Mech is periodic, 0 otherwise.
	Window clock.Duration
	// CostRate is the estimated maintenance cost of the choice in work
	// units per time unit.
	CostRate float64
}

// Rate returns the estimated steady-state maintenance cost (work per
// time unit) of running the workload under the given mechanism, using
// the same model as Choose. For the periodic mechanism the window is
// taken as given (pass the handler's actual window); rate 0 is
// returned for a non-positive window or an unknown mechanism, and the
// memoized on-demand rate applies only when the workload is Pure.
func (w Workload) Rate(m core.Mechanism, window clock.Duration) float64 {
	switch m {
	case core.OnDemandMechanism:
		if w.Pure {
			return min(w.Reads, w.Writes) * w.Cost
		}
		return w.Reads * w.Cost
	case core.TriggeredMechanism:
		return w.Writes * w.Cost
	case core.PeriodicMechanism:
		if window <= 0 {
			return 0
		}
		return w.Cost / float64(window)
	}
	return 0
}

// Choose picks the cheapest maintenance mechanism for the workload.
//
// The candidate cost rates are:
//
//	on-demand           Reads  * Cost   (recompute per access)
//	memoized on-demand  min(Reads, Writes) * Cost
//	                    (recompute only on first access after a
//	                    dependency change; requires Pure)
//	triggered           Writes * Cost   (recompute per dependency change)
//	periodic            Cost / W        (one recompute per window)
//
// The periodic candidate is only admissible when the workload declares
// a positive freshness SLO — its reads observe values up to one window
// old — and its window is the SLO clamped into [minWindow, maxWindow]:
// the longest period the freshness bound permits, hence the cheapest
// admissible cadence.
//
// Candidates are evaluated in the order memoized on-demand, on-demand,
// triggered, periodic, and a later candidate replaces an earlier one
// only when strictly cheaper. Ties therefore keep the fresher, less
// stateful mechanism, which gives the model deterministic, pinnable
// thresholds: Reads == Writes chooses on-demand, not triggered, and a
// periodic window would have to beat — not match — the event-driven
// mechanisms to win.
func Choose(w Workload, minWindow, maxWindow clock.Duration) decision {
	type candidate struct {
		mech   core.Mechanism
		window clock.Duration
		rate   float64
	}
	var cands []candidate
	if w.Pure {
		cands = append(cands, candidate{core.OnDemandMechanism, 0, min(w.Reads, w.Writes) * w.Cost})
	}
	cands = append(cands,
		candidate{core.OnDemandMechanism, 0, w.Reads * w.Cost},
		candidate{core.TriggeredMechanism, 0, w.Writes * w.Cost},
	)
	if w.SLO > 0 {
		win := w.SLO
		if minWindow > 0 && win < minWindow {
			win = minWindow
		}
		if maxWindow > 0 && win > maxWindow {
			win = maxWindow
		}
		if win > 0 {
			cands = append(cands, candidate{core.PeriodicMechanism, win, w.Cost / float64(win)})
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.rate < best.rate {
			best = c
		}
	}
	return decision{Mech: best.mech, Window: best.window, CostRate: best.rate}
}
