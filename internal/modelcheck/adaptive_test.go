package modelcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/clock"
	"repro/internal/core"
)

// This file closes the loop between the adaptive-maintenance controller
// (internal/adapt) and the reference model: the controller plans
// migrations from the REAL system's sampled economics, and the driver
// mirrors every planned migration into the model, so the lockstep
// comparison proves that controller-driven live migration preserves
// exact value semantics — not just that hand-picked migrations do.

// RunSequentialAdaptive drives one seeded workload through the real
// system and the model in lockstep with a per-registry adapt.Controller
// layered on top: every few ops each controller samples the real
// system's access/update counters, plans migrations through the cost
// model, and the driver applies each plan to BOTH the system and the
// model, comparing error classes and then the complete observable
// state (values bit-exact, mechanisms, migration and delta counters).
// It returns the number of controller-planned migrations applied, so
// callers can assert the adaptive path was actually exercised across a
// seed set.
func RunSequentialAdaptive(t *testing.T, seed int64) int {
	t.Helper()
	wl := Generate(seed, Config{Ops: 80})
	label := fmt.Sprintf("seed=%d(adaptive)", seed)
	sys := NewSystem(wl, nil, nil)
	model := NewModel(wl)

	// Aggressive controller settings so short workloads migrate: no
	// dwell requirement, low hysteresis, an SLO that admits periodic
	// cadences in the generated windows' range, and a compute cost that
	// makes read/update rate differences decisive.
	ctrls := make([]*adapt.Controller, len(wl.Regs))
	for ri := range wl.Regs {
		ctrls[ri] = adapt.New(sys.Regs[ri], adapt.Config{
			Interval: 10, Hysteresis: 0.05, MinDwell: -1,
			FreshnessSLO: 20, MinWindow: 2, MaxWindow: 50, CostHint: 4,
		})
	}
	tracked := make(map[ikey]bool)
	applied := 0

	subs := lockstep(t, label, sys, model, wl.Ops, func(i int, at string, subs []heldSub) {
		if (i+1)%8 != 0 {
			return
		}
		// Sync controller tracking with the inclusion set: newly
		// included adaptable items join (Track resets their sampling
		// baseline), excluded ones leave the set. The controller keeps
		// an excluded item's state: Sample skips it while it is out,
		// and Track re-baselines it when it is included again.
		for ri := range wl.Regs {
			for _, it := range wl.Regs[ri].Items {
				if it.Adapt == AdaptNone {
					continue
				}
				k := ikey{ri, it.Kind}
				switch inc := model.IsIncluded(ri, it.Kind); {
				case inc && !tracked[k]:
					if err := ctrls[ri].Track(it.Kind, 0, 0); err != nil {
						t.Fatalf("%s: Track(%s): %v", at, it.Kind, err)
					}
					tracked[k] = true
				case !inc && tracked[k]:
					delete(tracked, k)
				}
			}
		}
		// One controller iteration per registry, each planned migration
		// stepped through system and model as a migrate op.
		for ri, ctrl := range ctrls {
			for _, mg := range ctrl.Plan(ctrl.Sample()) {
				op := Op{Kind: OpMigrate, Reg: ri, Item: mg.Kind, Arg: int64(mg.To) | int64(mg.Window)<<8}
				cat := fmt.Sprintf("%s ctrl (%s)", at, op)
				if _, err := stepOp(t, cat, sys, model, op, subs); err == nil {
					applied++
				}
				compareStates(t, cat, sys, model, subs)
			}
		}
	})
	teardown(t, label+" teardown", sys, subs)
	checkWindowLogs(t, label, sys, nil)
	return applied
}

// migTarget is one item a RunConcurrentMigrations migrator owns: only
// the migrator migrates it, so its mechanism trajectory — and therefore
// the expected final mechanism and total migration count — is
// deterministic regardless of how the other workers interleave.
type migTarget struct {
	ri    int
	kind  core.Kind
	adapt AdaptKind
	mech  core.Mechanism
	win   clock.Duration
}

// RunConcurrentMigrations drives one seeded concurrent workload from
// `workers` goroutines (as RunConcurrent does) with a dedicated
// migrator goroutine storming seeded live migrations over a handful of
// pre-subscribed adaptable items — racing subscribes, releases, clock
// advances, event propagation, and reads under -race. Mid-run values
// are schedule-dependent and checked for readability only; at
// quiescence the migration counter and each target's final mechanism
// and window are pinned against the migrator's deterministic
// trajectory, structure is replayed against a fresh model, and the
// standing invariants (integrity, scopes, window tiling, handler
// conservation) must hold. Returns the number of migrations performed.
func RunConcurrentMigrations(t *testing.T, seed int64, workers int, extra ...core.EnvOption) int64 {
	t.Helper()
	return runConcurrent(t, seed, workers, true, extra)
}

// migrator is the migration storm of a concurrent run: its targets,
// the subscriptions holding them, and the trajectory it performed.
type migrator struct {
	sys      *System
	targets  []*migTarget
	held     []heldSub
	expected int64
}

// newMigrator pre-subscribes up to four adaptable items, held for the
// whole run so the migrator never races exclusion (Migrate on an
// excluded item is ErrUnsubscribed, which would make the expected
// count schedule-dependent).
func newMigrator(t *testing.T, seed int64, sys *System) *migrator {
	t.Helper()
	mg := &migrator{sys: sys}
	for ri := range sys.Wl.Regs {
		for _, it := range sys.Wl.Regs[ri].Items {
			if it.Adapt == AdaptNone || len(mg.targets) >= 4 {
				continue
			}
			sub, err := sys.Regs[ri].Subscribe(it.Kind)
			if err != nil {
				t.Fatalf("seed=%d: subscribing migration target r%d/%s: %v", seed, ri, it.Kind, err)
			}
			mg.held = append(mg.held, heldSub{sub: sub, key: ikey{ri, it.Kind}})
			mg.targets = append(mg.targets, &migTarget{
				ri: ri, kind: it.Kind, adapt: it.Adapt,
				mech: it.Mech, win: it.Window,
			})
		}
	}
	return mg
}

// storm performs n seeded legal migrations over the targets, tracking
// the deterministic expected trajectory. It runs on its own goroutine.
func (mg *migrator) storm(t *testing.T, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed ^ 0x6d696772))
	for i := 0; i < n; i++ {
		tg := mg.targets[rng.Intn(len(mg.targets))]
		var to core.Mechanism
		if tg.adapt == AdaptExact {
			// AdaptExact declares no triggered form.
			to = []core.Mechanism{core.OnDemandMechanism, core.PeriodicMechanism}[rng.Intn(2)]
		} else {
			to = core.Mechanism(1 + rng.Intn(3))
		}
		win := []clock.Duration{3, 5, 7, 10}[rng.Intn(4)]
		if err := mg.sys.Regs[tg.ri].Migrate(tg.kind, to, win); err != nil {
			t.Errorf("seed=%d: migrate r%d/%s -> %v: %v", seed, tg.ri, tg.kind, to, err)
			continue
		}
		if to != tg.mech || (to == core.PeriodicMechanism && win != tg.win) {
			mg.expected++
		}
		tg.mech = to
		if to == core.PeriodicMechanism {
			tg.win = win
		}
	}
}

// check pins the migration counter and each target's final mechanism
// and window against the trajectory storm performed.
func (mg *migrator) check(t *testing.T, at string) {
	t.Helper()
	if got := mg.sys.Env.Stats().Migrations.Load(); got != mg.expected {
		t.Fatalf("%s: %d migrations, migrator performed %d", at, got, mg.expected)
	}
	for _, tg := range mg.targets {
		reg := mg.sys.Regs[tg.ri]
		if mech, ok := reg.Mechanism(tg.kind); !ok || mech != tg.mech {
			t.Fatalf("%s: r%d/%s mechanism %v (ok=%v), migrator left %v", at, tg.ri, tg.kind, mech, ok, tg.mech)
		}
		if tg.mech == core.PeriodicMechanism {
			if w, ok := reg.Window(tg.kind); !ok || w != tg.win {
				t.Fatalf("%s: r%d/%s window %d (ok=%v), migrator left %d", at, tg.ri, tg.kind, w, ok, tg.win)
			}
		}
	}
}
