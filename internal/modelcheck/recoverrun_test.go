package modelcheck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/persist"
)

// Crash-recovery lockstep: run a workload with a durability plane
// attached, kill the process at an arbitrary op boundary (or tear the
// WAL at an arbitrary byte), recover into a fresh system, and verify
//
//  1. the recovered topology — inclusion sets, refcounts, mechanisms,
//     windows, dependency edges — is byte-identical to the pre-crash
//     structural state at the durable op boundary (topologyString);
//  2. every checkpointed item still included serves its checkpointed
//     last-good value tagged ErrStale+ErrRestored, at a publication
//     version above the checkpointed one (so since-based watch resume
//     sees exactly the stale republish, not a dead stream);
//  3. warming through the probe machinery converges every item back to
//     healthy fresh values.
//
// Module attach ops are filtered from crash workloads: module
// attachment is wiring re-established by process setup code (NewSystem
// here), not journaled plane state.

// crashScript derives the crash-harness op script from a seed.
func crashScript(seed int64, ops int) (*Workload, []Op) {
	wl := Generate(seed, Config{Ops: ops})
	script := make([]Op, 0, len(wl.Ops))
	for _, op := range wl.Ops {
		if op.Kind == OpAttachModule {
			continue
		}
		script = append(script, op)
	}
	return wl, script
}

// breakerEnv is the env configuration every crash-harness system runs
// under: recovery's stale-restore path needs the breaker machinery.
func breakerEnv() []core.EnvOption {
	return []core.EnvOption{core.WithBreaker(core.DefaultBreakerPolicy)}
}

// topologyString renders the full structural state of a system in a
// canonical form: per item, inclusion, refcount, mechanism, window, and
// the sorted dependency-edge multiset. Clock- and value-independent, so
// a recovered system compares byte-for-byte against the pre-crash one.
func topologyString(sys *System) string {
	var b strings.Builder
	for ri := range sys.Wl.Regs {
		reg := sys.Regs[ri]
		for _, it := range sys.Wl.Regs[ri].Items {
			if !reg.IsIncluded(it.Kind) {
				continue
			}
			mech, _ := reg.Mechanism(it.Kind)
			win := clock.Duration(0)
			if mech == core.PeriodicMechanism {
				win, _ = reg.Window(it.Kind)
			}
			deps := []string{}
			if refs, ok := reg.Dependencies(it.Kind); ok {
				for _, d := range refs {
					deps = append(deps, fmt.Sprintf("%s/%s", d.RegistryID, d.Kind))
				}
			}
			sort.Strings(deps)
			fmt.Fprintf(&b, "%s/%s refs=%d mech=%d win=%d deps=[%s]\n",
				reg.ID(), it.Kind, reg.Refs(it.Kind), mech, win, strings.Join(deps, " "))
		}
	}
	return b.String()
}

// itemState is a pre-crash observation used for restore assertions.
type itemState struct {
	value   core.Value
	version uint64
	mech    core.Mechanism
}

// snapshotItems observes every included non-static item of sys.
func snapshotItems(sys *System) map[ikey]itemState {
	out := make(map[ikey]itemState)
	for ri := range sys.Wl.Regs {
		reg := sys.Regs[ri]
		for _, it := range sys.Wl.Regs[ri].Items {
			if !reg.IsIncluded(it.Kind) {
				continue
			}
			mech, _ := reg.Mechanism(it.Kind)
			if mech == core.StaticMechanism {
				continue
			}
			v, err := reg.Peek(it.Kind)
			if err != nil {
				continue
			}
			ver, _ := reg.ItemVersion(it.Kind)
			out[ikey{ri, it.Kind}] = itemState{value: v, version: ver, mech: mech}
		}
	}
	return out
}

// warmRecovered advances the recovered system through enough probe
// backoffs for every quarantined item to recompute and propagate, then
// asserts full convergence: no stale reads, everything healthy.
func warmRecovered(t *testing.T, at string, sys *System) {
	t.Helper()
	for i := 0; i < 12; i++ {
		sys.Clk.Advance(clock.Duration(core.DefaultBreakerPolicy.MaxProbeBackoff))
		sys.Env.Quiesce()
	}
	for ri := range sys.Wl.Regs {
		reg := sys.Regs[ri]
		for _, it := range sys.Wl.Regs[ri].Items {
			if !reg.IsIncluded(it.Kind) {
				continue
			}
			v, err := reg.Peek(it.Kind)
			if err != nil {
				t.Fatalf("%s: r%d/%s still unhealthy after warm: %v", at, ri, it.Kind, err)
			}
			if _, ok := v.(float64); !ok {
				t.Fatalf("%s: r%d/%s warm value %v (%T)", at, ri, it.Kind, v, v)
			}
			if hs, ok := reg.Health(it.Kind); !ok || hs.State != core.Healthy {
				t.Fatalf("%s: r%d/%s health %+v after warm", at, ri, it.Kind, hs)
			}
		}
	}
}

// countingSink is a watcher that only counts what it is told.
type countingSink struct{ published atomic.Uint64 }

func (s *countingSink) Published(uint64) { s.published.Add(1) }

// RunCrashRecovery drives one seeded workload with a durability plane,
// checkpoints at op ckptAt, kills the process (no final checkpoint) at
// op killAt, recovers into a fresh system, and verifies the recovery
// contract. The first run is a full model lockstep, so the pre-crash
// state itself is verified before it becomes the recovery oracle.
//
// every > 0 is the inline placement: the plane also checkpoints by
// itself every that many WAL records — from the journal hook, under the
// scope lock of the operation that crossed the threshold, live
// migrations included — and every item has a watcher attached.
func RunCrashRecovery(t *testing.T, seed int64, ckptAt, killAt, every int) {
	t.Helper()
	runCrashRecovery(t, seed, ckptAt, killAt, every, false)
}

// redefKind is the kill matrix's codec-backed kind: one kind whatever the
// codec args, a static item whose value is their length.
const redefKind core.Kind = "redef"

func redefDefinition(args string) (*core.Definition, error) {
	return &core.Definition{
		Kind: redefKind, Persist: "modelcheck.redef", PersistArgs: args,
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(float64(len(args))), nil },
	}, nil
}

func init() { persist.RegisterCodec("modelcheck.redef", redefDefinition) }

// RunRedefineRecovery is RunCrashRecovery with one more step before the
// kill: the first registry defines redefKind, redefines it while unused
// (Section 4.4.2) and subscribes to it, all three in the WAL tail. The
// recovered process never registers the kind itself, so replay must end
// on the second definition.
func RunRedefineRecovery(t *testing.T, seed int64, ckptAt, killAt int) {
	t.Helper()
	runCrashRecovery(t, seed, ckptAt, killAt, 0, true)
}

func runCrashRecovery(t *testing.T, seed int64, ckptAt, killAt, every int, redefine bool) {
	t.Helper()
	wl, script := crashScript(seed, 60)
	if killAt > len(script) {
		killAt = len(script)
	}
	if ckptAt > killAt {
		ckptAt = killAt
	}
	at := fmt.Sprintf("seed=%d ckpt@%d every=%d kill@%d", seed, ckptAt, every, killAt)
	dir := t.TempDir()

	// ---- First life: lockstep with the model, plane attached. ----
	sys1 := NewSystem(wl, nil, nil, breakerEnv()...)
	model := NewModel(wl)
	plane1, rs1, err := persist.Open(sys1.Env, dir, persist.Options{CheckpointEvery: every}, sys1.Regs...)
	if err != nil {
		t.Fatalf("%s: first Open: %v", at, err)
	}
	if rs1.Recovered {
		t.Fatalf("%s: fresh dir reported recovered", at)
	}
	sink := new(countingSink)
	// ckptItems is what the last checkpoint saw: every journaled op
	// writes its record as its last step, so the state after the op that
	// checkpointed — inline or by the call below — is the checkpoint's.
	ckptItems := map[ikey]itemState{}
	ckpts := sys1.Env.Stats().Checkpoints.Load()
	subs := lockstep(t, at, sys1, model, script[:killAt], func(i int, opAt string, _ []heldSub) {
		if every > 0 {
			// A sink lives and dies with its item, so the watcher attaches
			// to every item included after each op.
			for _, reg := range sys1.Regs {
				for _, kind := range reg.Included() {
					reg.Watch(kind, sink)
				}
			}
		}
		if i == ckptAt-1 {
			if err := plane1.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", opAt, err)
			}
		}
		if n := sys1.Env.Stats().Checkpoints.Load(); n != ckpts {
			ckpts, ckptItems = n, snapshotItems(sys1)
		}
	})
	if every > 0 && sink.published.Load() == 0 {
		// An inclusion publishes version 1 before the watcher attaches;
		// every later publication reaches it.
		for k, st := range snapshotItems(sys1) {
			if st.version > 1 {
				t.Fatalf("%s: %v is at version %d but the attached watcher saw no publication", at, k, st.version)
			}
		}
	}
	if redefine {
		for _, args := range []string{"a", "bbb"} {
			def, _ := redefDefinition(args)
			sys1.Regs[0].MustDefine(def)
		}
		if _, err := sys1.Regs[0].Subscribe(redefKind); err != nil {
			t.Fatalf("%s: subscribing %s: %v", at, redefKind, err)
		}
	}
	wantTopology := topologyString(sys1)
	tailRecords := sys1.Env.Stats().WALBytes.Load() // bytes in current segment
	plane1.Abandon()                                // SIGKILL

	// ---- Second life: recover and verify. ----
	sys2 := NewSystem(wl, nil, nil, breakerEnv()...)
	plane2, rs2, err := persist.Open(sys2.Env, dir, persist.Options{}, sys2.Regs...)
	if err != nil {
		t.Fatalf("%s: recovery Open: %v", at, err)
	}
	defer plane2.Close()
	if rs2.Skipped != 0 {
		t.Fatalf("%s: recovery skipped %d ops (stats %+v)", at, rs2.Skipped, rs2)
	}
	if tailRecords > 0 && rs2.WALRecords == 0 {
		t.Fatalf("%s: WAL tail (%d bytes) replayed no records", at, tailRecords)
	}

	// 1. Structural byte-identity with the pre-crash state.
	if got := topologyString(sys2); got != wantTopology {
		t.Fatalf("%s: recovered topology differs\n--- pre-crash ---\n%s--- recovered ---\n%s",
			at, wantTopology, got)
	}

	// 2. Degraded mode: checkpointed items still included serve their
	// checkpointed last-good tagged stale, above the persisted version.
	restored := 0
	for k, st := range ckptItems {
		reg := sys2.Regs[k.reg]
		if !reg.IsIncluded(k.kind) {
			continue // dropped by the WAL tail
		}
		v, err := reg.Peek(k.kind)
		if !errors.Is(err, core.ErrStale) || !errors.Is(err, core.ErrRestored) {
			t.Fatalf("%s: %v err = %v, want ErrStale+ErrRestored", at, k, err)
		}
		if v != st.value {
			t.Fatalf("%s: %v restored value %v, want checkpointed %v", at, k, v, st.value)
		}
		if hs, ok := reg.Health(k.kind); !ok || hs.State != core.Quarantined {
			t.Fatalf("%s: %v health %+v, want quarantined", at, k, hs)
		}
		if ver, _ := reg.ItemVersion(k.kind); ver <= st.version {
			t.Fatalf("%s: %v version %d not above persisted %d (watch resume would miss the republish)",
				at, k, ver, st.version)
		}
		restored++
	}
	if restored != rs2.Restored {
		t.Fatalf("%s: verified %d restored items, recovery reported %d", at, restored, rs2.Restored)
	}

	// 3. Warm back to healthy through the probe machinery.
	warmRecovered(t, at, sys2)

	ext := extCounts(wl, subs)
	if redefine {
		if v, err := sys2.Regs[0].Peek(redefKind); err != nil || v != 3.0 || rs2.Defined != 2 {
			t.Fatalf("%s: recovered %s = %v, %v with %d records defined; want the second definition's 3 and 2",
				at, redefKind, v, err, rs2.Defined)
		}
		ext[core.ItemKey{Registry: sys2.Regs[0].ID(), Kind: redefKind}] = 1
	}
	checkInvariants(t, at+" recovered", sys2, ext)
}

// RunTornWrite drives a workload with a plane, kills it, then mutilates
// the WAL at byte granularity (truncation or bit flip) and verifies
// recovery lands exactly on a durable op-boundary prefix: the recovered
// topology equals a plain replay of the script up to the boundary the
// surviving records encode. Relies on each journaled op writing at most
// one WAL record, so record count maps 1:1 to an op boundary.
func RunTornWrite(t *testing.T, seed int64, mutate func(wal []byte) []byte) {
	t.Helper()
	wl, script := crashScript(seed, 50)
	dir := t.TempDir()

	sys1 := NewSystem(wl, nil, nil, breakerEnv()...)
	plane1, _, err := persist.Open(sys1.Env, dir, persist.Options{}, sys1.Regs...)
	if err != nil {
		t.Fatalf("seed=%d: Open: %v", seed, err)
	}
	// recsAt[i] = cumulative WAL records after script[i] (each op writes
	// at most one).
	var subs []heldSub
	recsAt := make([]int64, len(script))
	for i, op := range script {
		subs, _, _ = applyOp(sys1, op, subs)
		recsAt[i] = sys1.Env.Stats().WALRecords.Load()
	}
	plane1.Abandon()

	// Mutilate the (single) WAL segment.
	walFiles, _ := filepath.Glob(filepath.Join(dir, "wal.*.log"))
	if len(walFiles) != 1 {
		t.Fatalf("seed=%d: %d WAL segments, want 1", seed, len(walFiles))
	}
	raw, err := os.ReadFile(walFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	mutated := mutate(raw)
	if err := os.WriteFile(walFiles[0], mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	// The durable prefix: recovery replays exactly the whole records
	// that survive framing, i.e. the state at the op that wrote the
	// m-th record.
	payloads, _ := persist.ReplayWAL(mutated)
	m := int64(len(payloads))
	boundary := -1
	for i := range recsAt {
		if recsAt[i] <= m {
			boundary = i
		}
	}
	at := fmt.Sprintf("seed=%d torn(m=%d boundary=%d)", seed, m, boundary)

	// Expected state: a plain (non-durable) system replaying the script
	// through the boundary.
	want := NewSystem(wl, nil, nil, breakerEnv()...)
	var wsubs []heldSub
	for i := 0; i <= boundary; i++ {
		wsubs, _, _ = applyOp(want, script[i], wsubs)
	}

	sys2 := NewSystem(wl, nil, nil, breakerEnv()...)
	plane2, rs2, err := persist.Open(sys2.Env, dir, persist.Options{}, sys2.Regs...)
	if err != nil {
		t.Fatalf("%s: recovery Open: %v", at, err)
	}
	defer plane2.Close()
	if int64(rs2.WALRecords) != m {
		t.Fatalf("%s: recovery replayed %d records, framing says %d survive", at, rs2.WALRecords, m)
	}
	if wantS, got := topologyString(want), topologyString(sys2); got != wantS {
		t.Fatalf("%s: recovered topology is not the durable prefix\n--- want ---\n%s--- got ---\n%s",
			at, wantS, got)
	}
	warmRecovered(t, at, sys2)
}
