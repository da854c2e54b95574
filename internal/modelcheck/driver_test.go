package modelcheck

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// heldSub is one live external subscription, tracked identically by
// the driver for the real system and the model.
type heldSub struct {
	sub *core.Subscription
	key ikey
}

// classify collapses an error to its sentinel class, so the real
// system's wrapped errors compare against the model's bare sentinels.
func classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrUnknownItem):
		return "unknown-item"
	case errors.Is(err, core.ErrItemInUse):
		return "in-use"
	case errors.Is(err, core.ErrBadSelector):
		return "bad-selector"
	case errors.Is(err, core.ErrCycle):
		return "cycle"
	case errors.Is(err, core.ErrUnsubscribed):
		return "unsubscribed"
	case errors.Is(err, core.ErrNotMigratable):
		return "not-migratable"
	case errors.Is(err, core.ErrComputePanic):
		return "compute-panic"
	default:
		return "other: " + err.Error()
	}
}

// extCounts derives the external-subscription counts VerifyIntegrity
// checks refcount conservation against.
func extCounts(wl *Workload, subs []heldSub) map[core.ItemKey]int {
	ext := make(map[core.ItemKey]int)
	for _, s := range subs {
		ext[core.ItemKey{Registry: wl.Regs[s.key.reg].ID, Kind: s.key.kind}]++
	}
	return ext
}

// applyOp applies one workload op to the real system — the only place
// an op reaches it. It returns the held subscriptions after the op, the
// value an OpRead read, and the op's error. OpUnsubscribe releases held
// subscription #Arg modulo the pool size and is a no-op on an empty
// pool.
func applyOp(sys *System, op Op, subs []heldSub) ([]heldSub, core.Value, error) {
	reg := sys.Regs[op.Reg]
	switch op.Kind {
	case OpSubscribe:
		sub, err := reg.Subscribe(op.Item)
		if err == nil {
			subs = append(subs, heldSub{sub: sub, key: ikey{op.Reg, op.Item}})
		}
		return subs, nil, err
	case OpUnsubscribe:
		if len(subs) > 0 {
			idx := int(op.Arg) % len(subs)
			subs[idx].sub.Unsubscribe()
			subs = append(subs[:idx], subs[idx+1:]...)
		}
	case OpAdvance:
		sys.Clk.Advance(clock.Duration(op.Arg))
	case OpFireEvent:
		reg.FireEvent(op.Event)
	case OpNotifyChanged:
		reg.NotifyChanged(op.Item)
	case OpRead:
		v, err := reg.Peek(op.Item)
		return subs, v, err
	case OpMigrate:
		return subs, nil, reg.Migrate(op.Item, core.Mechanism(op.Arg&0xff), clock.Duration(op.Arg>>8))
	case OpRedefine:
		return subs, nil, reg.Define(sys.definition(op.Reg, *sys.Wl.Item(op.Reg, op.Item)))
	case OpAttachModule:
		sys.Regs[sys.Wl.Regs[op.Reg].Parent].AttachModule(sys.Wl.Regs[op.Reg].ModName, reg)
	}
	return subs, nil, nil
}

// stepOp applies one op to the real system and mirrors it into the
// model, comparing error classes (and, for reads, the value). It returns
// the held subscriptions after the op and the real system's error.
func stepOp(t *testing.T, at string, sys *System, model *Model, op Op, subs []heldSub) ([]heldSub, error) {
	t.Helper()
	if op.Kind == OpUnsubscribe && len(subs) > 0 {
		model.Unsubscribe(subs[int(op.Arg)%len(subs)].key) // the one applyOp releases
	}
	subs, v, err := applyOp(sys, op, subs)
	var merr error
	switch op.Kind {
	case OpSubscribe:
		merr = model.Subscribe(op.Reg, op.Item)
	case OpAdvance:
		model.Advance(op.Arg)
	case OpFireEvent:
		model.FireEvent(op.Reg, op.Event)
	case OpNotifyChanged:
		model.NotifyChanged(op.Reg, op.Item)
	case OpRead:
		mv, ok := model.Value(op.Reg, op.Item)
		if !ok {
			if !errors.Is(err, core.ErrUnsubscribed) {
				t.Fatalf("%s: real (%v, %v), model not included", at, v, err)
			}
		} else if err != nil || v != any(mv) {
			t.Fatalf("%s: real (%v, %v), model %v", at, v, err, mv)
		}
		return subs, err
	case OpMigrate:
		merr = model.Migrate(op.Reg, op.Item, core.Mechanism(op.Arg&0xff), clock.Duration(op.Arg>>8))
	case OpRedefine:
		merr = model.Redefine(op.Reg, op.Item)
	}
	if got, want := classify(err), classify(merr); got != want {
		t.Fatalf("%s: real err %q, model err %q", at, got, want)
	}
	return subs, err
}

// RunSequential drives one seeded workload through the real system
// and the reference model in lockstep, comparing the complete
// observable state — error classes, inclusion sets, reference counts,
// dependency edges, and exact metadata values — after every single
// operation, plus the structural invariants (core.VerifyIntegrity)
// and lock hygiene (core.ScopesUnlocked).
func RunSequential(t *testing.T, seed int64) {
	t.Helper()
	runLockstep(t, fmt.Sprintf("seed=%d", seed), Generate(seed, Config{Ops: 80}))
}

// RunSequentialMemo is RunSequential over a memo-enabled env
// (core.WithMemoizedOnDemand): the identical workload — mixing pure,
// volatile, and pure-over-volatile on-demand items — must stay exactly
// value- and error-equivalent to the model while pure reads are served
// from the versioned cache. The model has no memo concept, so any
// stale memo hit shows up as a value divergence at the op where it
// happened.
func RunSequentialMemo(t *testing.T, seed int64) {
	t.Helper()
	runLockstep(t, fmt.Sprintf("seed=%d(memo)", seed), Generate(seed, Config{Ops: 80}), core.WithMemoizedOnDemand())
}

// RunSequentialDeltaOff is RunSequential over a delta-disabled env
// (core.WithoutDeltaPropagation): the identical workload — including
// its delta aggregates — must stay exactly value- and
// error-equivalent to the model with every aggregate refresh on the
// full-fold path (the model pins DeltaFires to zero). Together with
// RunSequential on the same seeds this is the delta-on/delta-off
// lockstep: both runs compare bit-identical values against the same
// model, so they are bit-identical to each other.
func RunSequentialDeltaOff(t *testing.T, seed int64) {
	t.Helper()
	wl := Generate(seed, Config{Ops: 80})
	model := NewModel(wl)
	model.DeltaOff = true
	label := fmt.Sprintf("seed=%d(delta-off)", seed)
	sys := NewSystem(wl, nil, nil, core.WithoutDeltaPropagation())
	teardown(t, label+" teardown", sys, lockstep(t, label, sys, model, wl.Ops, nil))
	checkWindowLogs(t, label, sys, nil)
}

// runLockstep executes a workload's op script against the real system
// (inline updater) and the model in lockstep, comparing after every
// op, then releases everything and verifies the graph drains clean. It
// is shared by the seeded sequential drivers and the hand-built
// coalescing workloads. extra env options (e.g. WithMemoizedOnDemand)
// are forwarded to NewSystem.
func runLockstep(t *testing.T, label string, wl *Workload, extra ...core.EnvOption) {
	t.Helper()
	sys := NewSystem(wl, nil, nil, extra...)
	teardown(t, label+" teardown", sys, lockstep(t, label, sys, NewModel(wl), wl.Ops, nil))
	checkWindowLogs(t, label, sys, nil)
}

// lockstep is the one lockstep loop: it steps ops through sys and
// model, comparing the complete observable state after each. after,
// when set, runs once op i has compared equal (the adaptive
// controller's step, the crash harness's checkpoint). It returns the
// subscriptions still held.
func lockstep(t *testing.T, label string, sys *System, model *Model, ops []Op, after func(i int, at string, subs []heldSub)) []heldSub {
	t.Helper()
	var subs []heldSub
	for i, op := range ops {
		at := fmt.Sprintf("%s op#%d (%s)", label, i, op)
		subs, _ = stepOp(t, at, sys, model, op, subs)
		compareStates(t, at, sys, model, subs)
		if after != nil {
			after(i, at, subs)
		}
	}
	return subs
}

// compareStates checks full observable equivalence between the real
// system and the model at a quiescent point.
func compareStates(t *testing.T, at string, sys *System, model *Model, subs []heldSub) {
	t.Helper()
	if got, want := sys.Clk.Now(), model.Now(); got != want {
		t.Fatalf("%s: clock at %d, model at %d", at, got, want)
	}
	// Pin the coalesced refresh count, not just the resulting values: a
	// triggered dependent of k same-boundary publishers must refresh
	// exactly once per instant.
	if got, want := sys.Env.Stats().TriggerNotifications.Load(), model.Refreshes(); got != want {
		t.Fatalf("%s: %d trigger notifications, model %d refreshes", at, got, want)
	}
	// Pin the delta-path decision, not just the resulting values: the
	// model mirrors the fire/fallback/rebase contract, so a divergence
	// here localizes a refresh that took the wrong path even when both
	// paths would publish the same (exact) value.
	st := sys.Env.Stats().Snapshot()
	mf, mfb, mr := model.DeltaCounters()
	if st.DeltaFires != mf || st.DeltaFallbacks != mfb || st.DeltaRebases != mr {
		t.Fatalf("%s: delta fires/fallbacks/rebases %d/%d/%d, model %d/%d/%d",
			at, st.DeltaFires, st.DeltaFallbacks, st.DeltaRebases, mf, mfb, mr)
	}
	// Pin the migration count: every successful Migrate counts exactly
	// once, identity no-ops and rejections count nothing.
	if got, want := st.Migrations, model.Migrations(); got != want {
		t.Fatalf("%s: %d migrations, model %d", at, got, want)
	}
	compareItems(t, at, sys, model, true)
	checkInvariants(t, at, sys, extCounts(sys.Wl, subs))
}

// compareItems checks every workload item against the model: inclusion,
// refcount, a clean float64 value and the dependency edges (as
// multisets against the model's resolved groups). exact also pins what
// only a lockstep run can predict: the live mechanism, the periodic
// window — migrations must land on the real handler exactly as the
// model recorded them — and the value itself.
func compareItems(t *testing.T, at string, sys *System, model *Model, exact bool) {
	t.Helper()
	for ri := range sys.Wl.Regs {
		reg := sys.Regs[ri]
		for _, it := range sys.Wl.Regs[ri].Items {
			inc, minc := reg.IsIncluded(it.Kind), model.IsIncluded(ri, it.Kind)
			if inc != minc {
				t.Fatalf("%s: r%d/%s included=%v, model=%v", at, ri, it.Kind, inc, minc)
			}
			if !inc {
				continue
			}
			if got, want := reg.Refs(it.Kind), model.Refs(ri, it.Kind); got != want {
				t.Fatalf("%s: r%d/%s refs=%d, model=%d", at, ri, it.Kind, got, want)
			}
			if exact {
				mech, mwin, _ := model.Mechanism(ri, it.Kind)
				if got, ok := reg.Mechanism(it.Kind); !ok || got != mech {
					t.Fatalf("%s: r%d/%s mechanism %v (ok=%v), model %v", at, ri, it.Kind, got, ok, mech)
				}
				if mech == core.PeriodicMechanism {
					if w, ok := reg.Window(it.Kind); !ok || w != mwin {
						t.Fatalf("%s: r%d/%s window %d (ok=%v), model %d", at, ri, it.Kind, w, ok, mwin)
					}
				}
			}
			v, err := reg.Peek(it.Kind)
			if err != nil {
				t.Fatalf("%s: r%d/%s Peek error %v", at, ri, it.Kind, err)
			}
			mv, _ := model.Value(ri, it.Kind)
			if f, ok := v.(float64); !ok || (exact && f != mv) {
				t.Fatalf("%s: r%d/%s value %v (%T), model %v", at, ri, it.Kind, v, v, mv)
			}
			refs, ok := reg.Dependencies(it.Kind)
			if !ok {
				t.Fatalf("%s: r%d/%s included but Dependencies reports not", at, ri, it.Kind)
			}
			got := make(map[core.ItemKey]int)
			for _, d := range refs {
				got[core.ItemKey{Registry: d.RegistryID, Kind: d.Kind}]++
			}
			want := make(map[core.ItemKey]int)
			for _, g := range model.items[ikey{ri, it.Kind}].depGroups {
				for _, dk := range g {
					want[core.ItemKey{Registry: sys.Wl.Regs[dk.reg].ID, Kind: dk.kind}]++
				}
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%s: r%d/%s deps %v, model %v", at, ri, it.Kind, got, want)
			}
		}
	}
}

// checkInvariants asserts the standing invariants at a quiescent point:
// core.VerifyIntegrity against the external subscription counts ext
// (refcount conservation, inclusion closure, scope consistency) and no
// component lock left held (core.ScopesUnlocked).
func checkInvariants(t *testing.T, at string, sys *System, ext map[core.ItemKey]int) {
	t.Helper()
	if errs := core.VerifyIntegrity(ext, sys.BaseRegs()...); len(errs) > 0 {
		t.Fatalf("%s: integrity violations: %v", at, errs)
	}
	if err := core.ScopesUnlocked(sys.Regs...); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
}

// teardown drops every held subscription and verifies the fully-released
// graph: no included items, the standing invariants, and handler
// create/remove conservation.
func teardown(t *testing.T, at string, sys *System, subs []heldSub) {
	t.Helper()
	for _, s := range subs {
		s.sub.Unsubscribe()
	}
	for ri := range sys.Wl.Regs {
		if inc := sys.Regs[ri].Included(); len(inc) > 0 {
			t.Fatalf("%s: registry %s still includes %v", at, sys.Wl.Regs[ri].ID, inc)
		}
	}
	checkInvariants(t, at, sys, map[core.ItemKey]int{})
	st := sys.Env.Stats().Snapshot()
	if st.HandlersCreated != st.HandlersRemoved {
		t.Fatalf("%s: %d handlers created, %d removed (leak)", at, st.HandlersCreated, st.HandlersRemoved)
	}
}

// checkWindowLogs verifies the Figure 4 isolation condition on every
// periodic handler instance: the windows tile time — the initial
// window is empty at the subscription instant, and each subsequent
// window begins exactly where the previous ended and strictly
// advances. Items in skip (fault victims whose panicked windows are
// unlogged) are exempt.
func checkWindowLogs(t *testing.T, at string, sys *System, skip map[ikey]bool) {
	t.Helper()
	for _, l := range sys.WindowLogs() {
		if skip[l.Item] {
			continue
		}
		wins := l.Windows()
		if len(wins) == 0 {
			t.Errorf("%s: %v: periodic handler computed no initial window", at, l.Item)
			continue
		}
		if wins[0][0] != wins[0][1] {
			t.Errorf("%s: %v: initial window %v not empty", at, l.Item, wins[0])
		}
		for i := 1; i < len(wins); i++ {
			if wins[i][0] != wins[i-1][1] {
				t.Errorf("%s: %v: window %d %v does not continue %v (gap or overlap)",
					at, l.Item, i, wins[i], wins[i-1])
			}
			if wins[i][1] <= wins[i][0] {
				t.Errorf("%s: %v: window %d %v does not advance", at, l.Item, i, wins[i])
			}
		}
	}
}

// RunConcurrent drives one seeded workload through the real system
// from `workers` goroutines over a pool updater, then checks the
// quiescent state: the op mix is commutative (all subscriptions are
// valid and module/definition state is fixed), so the final structure
// must equal the model's closure of the surviving subscriptions
// regardless of interleaving. Values of periodic and triggered items
// are schedule-dependent and are checked for integrity (tiling,
// readability), not for exact equality.
func RunConcurrent(t *testing.T, seed int64, workers int, extra ...core.EnvOption) {
	t.Helper()
	runConcurrent(t, seed, workers, false, extra)
}

// runConcurrent is the one concurrent runner behind RunConcurrent and
// RunConcurrentMigrations; migrate adds the migrator. It returns the
// number of migrations the migrator performed.
func runConcurrent(t *testing.T, seed int64, workers int, migrate bool, extra []core.EnvOption) int64 {
	t.Helper()
	wl := Generate(seed, Config{Ops: 40 * workers, Concurrent: true})
	u := core.NewPoolUpdater(workers)
	defer u.Stop()
	sys := NewSystem(wl, u, nil, extra...)
	var mg *migrator
	var subs []heldSub
	if migrate {
		mg = newMigrator(t, seed, sys)
		subs = append(subs, mg.held...)
	}

	// Partition the script: clock advances all go to worker 0 (the
	// virtual clock forbids re-entrant advancement), the rest round-
	// robin.
	scripts := make([][]Op, workers)
	rr := 0
	for _, op := range wl.Ops {
		w := 0
		if op.Kind != OpAdvance {
			w = rr % workers
			rr++
		}
		scripts[w] = append(scripts[w], op)
	}

	survivors := make([][]heldSub, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []heldSub
			for _, op := range scripts[w] {
				var v core.Value
				var err error
				held, v, err = applyOp(sys, op, held)
				// Every op of the concurrent mix succeeds, except that a
				// read may find its item excluded; a mid-run read must
				// never observe a corrupt snapshot.
				switch {
				case op.Kind == OpRead && errors.Is(err, core.ErrUnsubscribed):
				case err != nil:
					t.Errorf("seed=%d worker %d: %s: %v", seed, w, op, err)
				case op.Kind == OpRead:
					if _, ok := v.(float64); !ok {
						t.Errorf("seed=%d worker %d: %s: corrupt value %v (%T)", seed, w, op, v, v)
					}
				}
			}
			survivors[w] = held
		}(w)
	}
	if mg != nil && len(mg.targets) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mg.storm(t, seed, 6*workers)
		}()
	}
	wg.Wait()
	sys.Env.Quiesce()

	at := fmt.Sprintf("seed=%d quiescent", seed)
	if mg != nil {
		mg.check(t, at)
	}
	for _, s := range survivors {
		subs = append(subs, s...)
	}
	// Quiescent structural equivalence: replay only the surviving
	// subscriptions into a fresh model; inclusion sets and refcounts
	// must match exactly. Structure is migration-invariant (Migrate
	// never touches edges or refcounts), so the replay needs no
	// migration mirroring.
	model := NewModel(wl)
	for _, s := range subs {
		if err := model.Subscribe(s.key.reg, s.key.kind); err != nil {
			t.Fatalf("%s: model rejects surviving subscription %v: %v", at, s.key, err)
		}
	}
	compareItems(t, at, sys, model, false)
	checkInvariants(t, at, sys, extCounts(wl, subs))
	checkWindowLogs(t, fmt.Sprintf("seed=%d", seed), sys, nil)
	teardown(t, fmt.Sprintf("seed=%d teardown", seed), sys, subs)
	if mg == nil {
		return 0
	}
	return mg.expected
}
