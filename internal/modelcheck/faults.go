package modelcheck

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// Fault-injection scenarios. Each runs a seeded workload topology with
// one deliberately broken item and verifies the degradation contract:
// failures surface as errors on Subscribe/Value, never as leaked
// references, wedged component locks, or corrupted snapshots.

// closureOf returns the transitive dependency closure of one item
// (including itself), resolved with every module attached.
func closureOf(wl *Workload, start ikey) map[ikey]bool {
	resolver := NewModel(wl) // empty model: used only for selector resolution
	seen := make(map[ikey]bool)
	var walk func(k ikey)
	walk = func(k ikey) {
		if seen[k] {
			return
		}
		seen[k] = true
		for _, d := range wl.Item(k.reg, k.kind).Deps {
			for _, tr := range resolver.resolve(k.reg, d) {
				walk(ikey{tr, d.Kind})
			}
		}
	}
	walk(start)
	return seen
}

// pickItem draws a random workload item.
func pickItem(wl *Workload, rng *rand.Rand) ikey {
	ri := rng.Intn(len(wl.Regs))
	return ikey{ri, wl.Regs[ri].Items[rng.Intn(len(wl.Regs[ri].Items))].Kind}
}

// pickPeriodic draws a random periodic item; if the seed generated
// none, it deterministically converts the first item into one.
func pickPeriodic(wl *Workload, rng *rand.Rand) ikey {
	var ps []ikey
	for ri := range wl.Regs {
		for _, it := range wl.Regs[ri].Items {
			if it.Mech == core.PeriodicMechanism {
				ps = append(ps, ikey{ri, it.Kind})
			}
		}
	}
	if len(ps) == 0 {
		it := &wl.Regs[0].Items[0]
		it.Mech = core.PeriodicMechanism
		it.Window = 5
		it.Deps = nil
		return ikey{0, it.Kind}
	}
	return ps[rng.Intn(len(ps))]
}

// RunFaultBuild subscribes to every item of a seeded topology while
// one victim item's Build panics (panicMode) or errors. Subscriptions
// whose dependency closure contains the victim must fail — with
// ErrComputePanic in panic mode — rolling back mid-traversal without
// residue; all others must succeed. Invariants are checked after every
// attempt.
func RunFaultBuild(t *testing.T, seed int64, panicMode bool) {
	t.Helper()
	wl := Generate(seed, Config{Ops: 1})
	rng := rand.New(rand.NewSource(seed))
	victim := pickItem(wl, rng)
	faults := &Faults{}
	if panicMode {
		faults.PanicBuild = map[ikey]bool{victim: true}
	} else {
		faults.FailBuild = map[ikey]bool{victim: true}
	}
	sys := NewSystem(wl, nil, faults)

	var subs []heldSub
	for ri := range wl.Regs {
		for _, it := range wl.Regs[ri].Items {
			k := ikey{ri, it.Kind}
			at := fmt.Sprintf("seed=%d subscribe %v (victim %v)", seed, k, victim)
			sub, err := sys.Regs[ri].Subscribe(it.Kind)
			if closureOf(wl, k)[victim] {
				if err == nil {
					t.Fatalf("%s: succeeded, want failure through faulty Build", at)
				}
				if panicMode && !errors.Is(err, core.ErrComputePanic) {
					t.Fatalf("%s: error %v, want ErrComputePanic", at, err)
				}
			} else {
				if err != nil {
					t.Fatalf("%s: failed: %v", at, err)
				}
				subs = append(subs, heldSub{sub: sub, key: k})
			}
			checkInvariants(t, at, sys, extCounts(wl, subs))
			if inc := sys.Regs[victim.reg].IsIncluded(victim.kind); inc {
				t.Fatalf("%s: faulty victim became included", at)
			}
		}
	}
	teardown(t, fmt.Sprintf("seed=%d teardown", seed), sys, subs)
}

// RunFaultPeriodicPanic runs a pool-updater system in which one
// periodic item panics on every window computation after the first.
// The panic must surface as ErrComputePanic on reads of the victim
// while the rest of the graph keeps updating, with no wedged locks, no
// dead workers (later windows still execute — and still panic), and a
// clean teardown.
func RunFaultPeriodicPanic(t *testing.T, seed int64) {
	t.Helper()
	wl := Generate(seed, Config{Ops: 1})
	rng := rand.New(rand.NewSource(seed))
	victim := pickPeriodic(wl, rng)
	u := core.NewPoolUpdater(4)
	defer u.Stop()
	sys := NewSystem(wl, u, &Faults{PanicPeriodic: map[ikey]bool{victim: true}})

	subs := subscribeAll(t, seed, sys, nil)
	for step := 0; step < 6; step++ {
		sys.Clk.Advance(5)
		sys.Env.Quiesce()
	}
	at := fmt.Sprintf("seed=%d after ticks (victim %v)", seed, victim)
	if _, err := sys.Regs[victim.reg].Peek(victim.kind); !errors.Is(err, core.ErrComputePanic) {
		t.Fatalf("%s: victim Peek error %v, want ErrComputePanic", at, err)
	}
	checkInvariants(t, at, sys, extCounts(wl, subs))
	// Non-victim periodic items must still satisfy the isolation
	// condition; the victim's panicked windows are unlogged by design.
	checkWindowLogs(t, at, sys, map[ikey]bool{victim: true})

	teardown(t, fmt.Sprintf("seed=%d teardown", seed), sys, subs)
}

// RunFaultSlowPeriodic blocks one periodic item's window computation
// on a pool worker while the clock advances past several boundaries,
// then releases it. The late computation must clamp its window to the
// clock's position, the queued stale ticks must be dropped rather than
// published out of order, and the window log must still tile time.
func RunFaultSlowPeriodic(t *testing.T, seed int64) {
	t.Helper()
	wl := Generate(seed, Config{Ops: 1})
	rng := rand.New(rand.NewSource(seed))
	victim := pickPeriodic(wl, rng)
	release := make(chan struct{})
	u := core.NewPoolUpdater(4)
	defer u.Stop()
	sys := NewSystem(wl, u, &Faults{BlockPeriodic: map[ikey]chan struct{}{victim: release}})

	subs := subscribeAll(t, seed, sys, nil)
	w := wl.Item(victim.reg, victim.kind).Window
	// Three victim ticks queue up while the computation blocks (at
	// most three of the four workers wedge on the handler); the first
	// to run covers the whole elapsed span, the others are stale.
	sys.Clk.Advance(3 * w)
	close(release)
	sys.Env.Quiesce()
	sys.Clk.Advance(2 * w)
	sys.Env.Quiesce()

	at := fmt.Sprintf("seed=%d slow updater (victim %v, window %d)", seed, victim, w)
	checkWindowLogs(t, at, sys, nil)
	now := sys.Clk.Now()
	for _, l := range sys.WindowLogs() {
		wins := l.Windows()
		if n := len(wins); n > 0 && wins[n-1][1] > now {
			t.Fatalf("%s: %v: window %v ends after the clock (%d)", at, l.Item, wins[n-1], now)
		}
	}
	if v, err := sys.Regs[victim.reg].Peek(victim.kind); err != nil {
		t.Fatalf("%s: victim Peek error %v", at, err)
	} else if _, ok := v.(float64); !ok {
		t.Fatalf("%s: victim value %v (%T), want float64", at, v, v)
	}
	checkInvariants(t, at, sys, extCounts(wl, subs))
	teardown(t, fmt.Sprintf("seed=%d teardown", seed), sys, subs)
}

// waitFor polls cond until it holds, failing the test after a real-
// time grace period. It synchronizes with pool-worker progress that
// happens on OS scheduling, not on the virtual clock (a worker
// reaching a hang gate, a released late result landing in the stats).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// health returns the victim's current health snapshot.
func health(t *testing.T, sys *System, k ikey) core.HealthSnapshot {
	t.Helper()
	hs, ok := sys.Regs[k.reg].Health(k.kind)
	if !ok {
		t.Fatalf("item %v not included", k)
	}
	return hs
}

// RunFaultHungCompute drives one periodic item of a seeded topology
// into a hung computation on a pool updater with a compute deadline
// and a breaker armed: each hung window computation times out, two
// timeouts trip the breaker, and the quarantined item must serve its
// last-good value — the value the reference model held at the fault
// instant — tagged stale, until a recovery probe succeeds after the
// fault heals. Late results from released hung computations must be
// fenced off (counted, never published).
func RunFaultHungCompute(t *testing.T, seed int64) {
	t.Helper()
	wl := Generate(seed, Config{Ops: 1})
	rng := rand.New(rand.NewSource(seed))
	victim := pickPeriodic(wl, rng)
	// Pin the victim's window so the deadline choreography below is
	// seed-independent: window 8 with deadline 2 leaves room to fire
	// each timeout strictly before the next boundary.
	wl.Item(victim.reg, victim.kind).Window = 8
	hang := NewHangFault()
	u := core.NewPoolUpdater(4)
	defer u.Stop()
	sys := NewSystem(wl, u,
		&Faults{HangPeriodic: map[ikey]*HangFault{victim: hang}},
		core.WithComputeDeadline(2),
		core.WithBreaker(core.BreakerPolicy{
			FailureThreshold: 2,
			FailureWindow:    1 << 20,
			ProbeBackoff:     3,
			MaxProbeBackoff:  12,
		}))
	model := NewModel(wl)
	subs := subscribeAll(t, seed, sys, model)
	at := func(what string) string {
		return fmt.Sprintf("seed=%d hung compute (victim %v): %s", seed, victim, what)
	}

	// Healthy warm-up: one full window in lockstep with the model.
	// (Other items' windows may clamp under pool scheduling; the
	// victim's boundary is the last instant of the advance, so its
	// window is exact.)
	sys.Clk.Advance(8)
	sys.Env.Quiesce()
	model.Advance(8)
	expected, ok := model.Value(victim.reg, victim.kind)
	if !ok {
		t.Fatalf("%s: model lost the victim", at("warm-up"))
	}
	if v, err := sys.Regs[victim.reg].Peek(victim.kind); err != nil || v != any(expected) {
		t.Fatalf("%s: victim (%v, %v), model %v", at("warm-up"), v, err, expected)
	}
	// The fault engages now; the next boundary (t=16) is the fault
	// instant. `expected` — the model's value as of this instant, the
	// window [0,8] — is what the quarantined item must keep serving.
	hang.Engage()

	// Failure 1: boundary at t=16 hangs, deadline fires at t=18.
	sys.Clk.Advance(8)
	waitFor(t, "first hung compute", func() bool { return hang.Caught() == 1 })
	sys.Clk.Advance(2)
	sys.Env.Quiesce()
	if got := health(t, sys, victim).State; got != core.Degraded {
		t.Fatalf("%s: health %v, want Degraded", at("after first timeout"), got)
	}
	if _, err := sys.Regs[victim.reg].Peek(victim.kind); !errors.Is(err, core.ErrComputeTimeout) {
		t.Fatalf("%s: victim Peek error %v, want ErrComputeTimeout", at("after first timeout"), err)
	}

	// Failure 2: boundary at t=24 hangs, timeout at t=26 trips the
	// breaker. The item unschedules and republishes its last-good
	// value tagged stale.
	sys.Clk.Advance(6)
	waitFor(t, "second hung compute", func() bool { return hang.Caught() == 2 })
	sys.Clk.Advance(2)
	sys.Env.Quiesce()
	if got := health(t, sys, victim).State; got != core.Quarantined {
		t.Fatalf("%s: health %v, want Quarantined", at("after trip"), got)
	}
	v, err := sys.Regs[victim.reg].Peek(victim.kind)
	if !errors.Is(err, core.ErrStale) || !errors.Is(err, core.ErrComputeTimeout) {
		t.Fatalf("%s: victim Peek error %v, want ErrStale wrapping ErrComputeTimeout", at("after trip"), err)
	}
	if v != any(expected) {
		t.Fatalf("%s: stale value %v, want model value at fault instant %v", at("after trip"), v, expected)
	}

	// First recovery probe (armed at t=27) still hangs: it times out
	// at t=29 and re-arms on doubled backoff (t=33).
	sys.Clk.Advance(1)
	waitFor(t, "hung probe compute", func() bool { return hang.Caught() == 3 })
	sys.Clk.Advance(2)
	sys.Env.Quiesce()
	if got := health(t, sys, victim).State; got != core.Quarantined {
		t.Fatalf("%s: health %v, want Quarantined", at("after failed probe"), got)
	}

	// Heal. The three hung computations release and complete, but the
	// generation fence rejects every late result: counted, never
	// published.
	hang.Heal()
	st := sys.Env.Stats()
	waitFor(t, "late results fenced", func() bool { return st.LateResults.Load() == 3 })
	if v, err := sys.Regs[victim.reg].Peek(victim.kind); !errors.Is(err, core.ErrStale) || v != any(expected) {
		t.Fatalf("%s: victim (%v, %v), want fenced stale value %v", at("after heal"), v, err, expected)
	}

	// Second probe at t=33 succeeds: the breaker closes, the item
	// publishes the cumulative window since its last good one and
	// resumes its boundary cadence.
	sys.Clk.Advance(4)
	sys.Env.Quiesce()
	if got := health(t, sys, victim).State; got != core.Healthy {
		t.Fatalf("%s: health %v, want Healthy", at("after recovery"), got)
	}
	if v, err := sys.Regs[victim.reg].Peek(victim.kind); err != nil || v != any(encodeWindow(16, 33)) {
		t.Fatalf("%s: victim (%v, %v), want %v", at("after recovery"), v, err, encodeWindow(16, 33))
	}
	sys.Clk.Advance(8)
	sys.Env.Quiesce()
	if v, err := sys.Regs[victim.reg].Peek(victim.kind); err != nil || v != any(encodeWindow(33, 41)) {
		t.Fatalf("%s: victim (%v, %v), want resumed cadence %v", at("after recovery"), v, err, encodeWindow(33, 41))
	}
	snap := st.Snapshot()
	if snap.Timeouts != 3 || snap.BreakerTrips != 1 || snap.BreakerRecoveries != 1 {
		t.Fatalf("%s: timeouts=%d trips=%d recoveries=%d, want 3/1/1",
			at("stats"), snap.Timeouts, snap.BreakerTrips, snap.BreakerRecoveries)
	}

	checkInvariants(t, at("final"), sys, extCounts(wl, subs))
	// The victim's log holds late-released and probe windows that were
	// never published in order; everyone else must still tile time.
	checkWindowLogs(t, at("final"), sys, map[ikey]bool{victim: true})
	teardown(t, fmt.Sprintf("seed=%d teardown", seed), sys, subs)
}

// RunFaultFlappingCompute drives one periodic item through repeated
// panic bursts on the deterministic inline updater: each burst of two
// panics trips the breaker, the recovery probe lands on the healthy
// computation of the flap cycle and closes it again. Quarantine entry
// and exit must both be observable, and the quarantined value must
// equal the reference model's value at the fault instant.
func RunFaultFlappingCompute(t *testing.T, seed int64) {
	t.Helper()
	wl := Generate(seed, Config{Ops: 1})
	rng := rand.New(rand.NewSource(seed))
	victim := pickPeriodic(wl, rng)
	w := int64(wl.Item(victim.reg, victim.kind).Window)
	flap := &FlapFault{Skip: 1, Burst: 2}
	sys := NewSystem(wl, nil,
		&Faults{FlapPeriodic: map[ikey]*FlapFault{victim: flap}},
		core.WithBreaker(core.BreakerPolicy{
			FailureThreshold: 2,
			FailureWindow:    1 << 20,
			ProbeBackoff:     2,
			MaxProbeBackoff:  16,
		}))
	model := NewModel(wl)
	subs := subscribeAll(t, seed, sys, model)
	at := func(what string) string {
		return fmt.Sprintf("seed=%d flapping compute (victim %v, window %d): %s", seed, victim, w, what)
	}

	// One healthy window, then advance the model to just before the
	// first panicking boundary at t=2w: its value there — the window
	// [0,w] — is the reference the quarantined item must serve.
	sys.Clk.Advance(clock.Duration(w))
	model.Advance(w)
	model.Advance(w - 1)
	expected, ok := model.Value(victim.reg, victim.kind)
	if !ok {
		t.Fatalf("%s: model lost the victim", at("warm-up"))
	}

	// Burst 1: panics at t=2w (degraded) and t=3w (trip).
	sys.Clk.Advance(clock.Duration(w))
	if got := health(t, sys, victim).State; got != core.Degraded {
		t.Fatalf("%s: health %v, want Degraded", at("after first panic"), got)
	}
	sys.Clk.Advance(clock.Duration(w))
	if got := health(t, sys, victim).State; got != core.Quarantined {
		t.Fatalf("%s: health %v, want Quarantined", at("after burst 1"), got)
	}
	v, err := sys.Regs[victim.reg].Peek(victim.kind)
	if !errors.Is(err, core.ErrStale) || !errors.Is(err, core.ErrComputePanic) {
		t.Fatalf("%s: victim Peek error %v, want ErrStale wrapping ErrComputePanic", at("after burst 1"), err)
	}
	if v != any(expected) {
		t.Fatalf("%s: stale value %v, want model value at fault instant %v", at("after burst 1"), v, expected)
	}

	// Probe at t=3w+2 lands on the flap cycle's healthy computation:
	// breaker closes, cumulative window [2w, 3w+2] publishes, cadence
	// re-arms.
	sys.Clk.Advance(2)
	if got := health(t, sys, victim).State; got != core.Healthy {
		t.Fatalf("%s: health %v, want Healthy", at("after probe 1"), got)
	}
	rec1 := encodeWindow(clock.Time(2*w), clock.Time(3*w+2))
	if v, err := sys.Regs[victim.reg].Peek(victim.kind); err != nil || v != any(rec1) {
		t.Fatalf("%s: victim (%v, %v), want %v", at("after probe 1"), v, err, rec1)
	}

	// Burst 2: panics at t=4w+2 and t=5w+2 trip again; the stale value
	// is now the recovery window of cycle 1.
	sys.Clk.Advance(clock.Duration(w))
	sys.Clk.Advance(clock.Duration(w))
	if got := health(t, sys, victim).State; got != core.Quarantined {
		t.Fatalf("%s: health %v, want Quarantined", at("after burst 2"), got)
	}
	if v, err := sys.Regs[victim.reg].Peek(victim.kind); !errors.Is(err, core.ErrStale) || v != any(rec1) {
		t.Fatalf("%s: victim (%v, %v), want stale %v", at("after burst 2"), v, err, rec1)
	}
	sys.Clk.Advance(2)
	if got := health(t, sys, victim).State; got != core.Healthy {
		t.Fatalf("%s: health %v, want Healthy", at("after probe 2"), got)
	}
	rec2 := encodeWindow(clock.Time(4*w+2), clock.Time(5*w+4))
	if v, err := sys.Regs[victim.reg].Peek(victim.kind); err != nil || v != any(rec2) {
		t.Fatalf("%s: victim (%v, %v), want %v", at("after probe 2"), v, err, rec2)
	}
	snap := sys.Env.Stats().Snapshot()
	if snap.BreakerTrips != 2 || snap.BreakerRecoveries != 2 {
		t.Fatalf("%s: trips=%d recoveries=%d, want 2/2", at("stats"), snap.BreakerTrips, snap.BreakerRecoveries)
	}

	checkInvariants(t, at("final"), sys, extCounts(wl, subs))
	checkWindowLogs(t, at("final"), sys, map[ikey]bool{victim: true})
	teardown(t, fmt.Sprintf("seed=%d teardown", seed), sys, subs)
}

// RunClockSkew drives the full topology through irregular clock jumps
// — fine steps, coarse skips, and huge skews crossing hundreds of
// window boundaries at once — comparing against the model after each
// jump and verifying the window tiling at the end.
func RunClockSkew(t *testing.T, seed int64) {
	t.Helper()
	wl := Generate(seed, Config{Ops: 1})
	sys := NewSystem(wl, nil, nil)
	model := NewModel(wl)
	subs := subscribeAll(t, seed, sys, model)

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < 40; i++ {
		var d int64
		switch rng.Intn(3) {
		case 0:
			d = int64(1 + rng.Intn(3))
		case 1:
			d = int64(50 + rng.Intn(500))
		default:
			d = int64(997 + rng.Intn(2000))
		}
		sys.Clk.Advance(clock.Duration(d))
		model.Advance(d)
		compareStates(t, fmt.Sprintf("seed=%d skew#%d (+%d)", seed, i, d), sys, model, subs)
	}
	teardown(t, fmt.Sprintf("seed=%d teardown", seed), sys, subs)
	checkWindowLogs(t, fmt.Sprintf("seed=%d", seed), sys, nil)
}

// subscribeAll subscribes to every item of the workload, failing the
// test on any error, and returns the held subscriptions. Given a model,
// it mirrors each subscription into it.
func subscribeAll(t *testing.T, seed int64, sys *System, model *Model) []heldSub {
	t.Helper()
	var subs []heldSub
	for ri := range sys.Wl.Regs {
		for _, it := range sys.Wl.Regs[ri].Items {
			sub, err := sys.Regs[ri].Subscribe(it.Kind)
			if err != nil {
				t.Fatalf("seed=%d: subscribe r%d/%s: %v", seed, ri, it.Kind, err)
			}
			subs = append(subs, heldSub{sub: sub, key: ikey{ri, it.Kind}})
			if model == nil {
				continue
			}
			if err := model.Subscribe(ri, it.Kind); err != nil {
				t.Fatalf("seed=%d: model rejects r%d/%s: %v", seed, ri, it.Kind, err)
			}
		}
	}
	return subs
}
