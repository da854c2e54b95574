package persist

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// Options configures a durability plane.
type Options struct {
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// CheckpointEvery writes an automatic checkpoint after this many
	// WAL records (0 = manual checkpoints only, via Plane.Checkpoint or
	// Close). The checkpoint runs inline on the structural operation
	// that crossed the threshold.
	CheckpointEvery int
}

// RecoveryStats reports what persist.Open found and rebuilt.
type RecoveryStats struct {
	// Recovered is false for a fresh start (no checkpoint, no WAL).
	Recovered bool
	// CheckpointSeq/CheckpointNow identify the loaded checkpoint
	// (0 when starting from WAL only or fresh).
	CheckpointSeq uint64
	CheckpointNow clock.Time
	// WALRecords counts structural ops replayed from the WAL tail;
	// WALTruncated reports a torn/corrupt tail dropped by framing.
	WALRecords   int
	WALTruncated bool
	// Defined/Subscribed/Migrated count replayed structural ops;
	// Restored counts the checkpointed items still included when Open
	// returns, each started serving its pre-crash value stale; Skipped
	// counts ops and items the replay could not apply.
	Defined    int
	Subscribed int
	Migrated   int
	Restored   int
	Skipped    int

	// CheckpointBytes is the size of the loaded checkpoint. The
	// durations split Open's wall time: reading and validating the
	// checkpoint, reading and decoding the WAL tail, rebuilding the
	// topology (defines, subscribes and migrations of both, each
	// checkpointed item restored as it is included), and writing the
	// barrier checkpoint.
	CheckpointBytes int64
	DecodeDur       time.Duration
	ReplayDur       time.Duration
	RebuildDur      time.Duration
	BarrierDur      time.Duration
}

// String renders the stats on one line, as mdserve's recovery banner
// prints them.
func (rs *RecoveryStats) String() string {
	if !rs.Recovered {
		return "fresh start"
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("ckpt seq %d (%d B), %d WAL records, %d defined, %d subs, %d migrated, %d items restored stale, %d skipped; "+
		"decode %.1f ms, replay %.1f ms, rebuild %.1f ms, barrier %.1f ms",
		rs.CheckpointSeq, rs.CheckpointBytes, rs.WALRecords, rs.Defined, rs.Subscribed, rs.Migrated, rs.Restored, rs.Skipped,
		ms(rs.DecodeDur), ms(rs.ReplayDur), ms(rs.RebuildDur), ms(rs.BarrierDur))
}

type key struct{ reg, kind string }

// itemTopo is what the checkpoint mirrors of one item's topology: its
// subscription count and its last migration, nil before one.
type itemTopo struct {
	kind string
	subs int
	mig  *ckptRec
}

func byTopoKind(t itemTopo, kind string) int { return cmp.Compare(t.kind, kind) }

// restoredError is the quarantine cause of an item the checkpoint
// recorded as already stale: ErrRestored, carrying the root cause's
// text. Checkpoints persist root, not the wrapped text, so the cause
// reads the same however many restarts it survives.
type restoredError struct{ root string }

func (e *restoredError) Error() string {
	return fmt.Sprintf("%v (pre-crash cause: %s)", core.ErrRestored, e.root)
}

func (e *restoredError) Unwrap() error { return core.ErrRestored }

// rootCause is the text a checkpoint records for a quarantine cause:
// nothing for a plain restore, the pre-crash root of a restored one.
func rootCause(cause error) string {
	if cause == nil || cause == core.ErrRestored {
		return ""
	}
	if re := (*restoredError)(nil); errors.As(cause, &re) {
		return re.root
	}
	if errors.Is(cause, core.ErrRestored) {
		return ""
	}
	return cause.Error()
}

// pendingItem is a checkpointed snapshot for its item's inclusion.
type pendingItem struct {
	reg  *core.Registry
	kind core.Kind
	core.RestoredItem
}

func byRegKind(a, b pendingItem) int {
	return cmp.Or(cmp.Compare(a.reg.ID(), b.reg.ID()), cmp.Compare(a.kind, b.kind))
}

// Plane is the durability side of one Env: it implements core.Journal
// (appending every structural op to the WAL), writes checkpoints, and
// owns the subscriptions it re-created during recovery.
//
// Lock order: a structural operation holds its dependency-scope
// component lock when Record runs, so the order is component -> Plane.mu
// -> node-level RLocks (checkpoint reads). Nothing under Plane.mu may
// start a structural operation.
type Plane struct {
	dir      string
	env      *core.Env
	opt      Options
	regs     map[string]*core.Registry
	regOrder []string

	mu        sync.Mutex
	w         *walWriter
	seq       uint64
	held      map[key][]*core.Subscription
	sinceCkpt int
	closed    bool
	broken    error

	// topo is the one mirror of the topology the next checkpoint
	// serializes: per registry id, the items with subscriptions or a
	// migration, sorted by kind like the registry's slots. topoIDs holds
	// its ids, uncovered registries' too, sorted by the next checkpoint
	// once one is added.
	topo       map[string][]itemTopo
	topoIDs    []string
	topoSorted bool
	// snapshot's scratch, reused by every checkpoint: the slot table of
	// one registry, and the migration section the slots pass collects.
	slots []core.SlotState
	migs  []ckptRec

	// appDefined holds, per registry id, the sorted kinds application code
	// defined before Open: replay keeps those and (re)defines every other
	// kind from its latest record. Set for the duration of a recovery.
	appDefined map[string][]core.Kind
}

func (p *Plane) walPath(seq uint64) string {
	return filepath.Join(p.dir, fmt.Sprintf("wal.%d.log", seq))
}

// Open recovers the plane persisted in dir (if any) into env and
// returns the attached Plane. regs are the registries the plane covers,
// addressed by their IDs, which must be unique.
//
// Recovery sequence: load the last checkpoint (a corrupt checkpoint is
// a hard errCorrupt error; a torn WAL tail is not), advance a virtual
// clock to the persisted instant, re-register codec-backed definitions,
// replay external subscriptions and migrations (checkpoint state first,
// then the WAL tail in commit order), and finally attach the journal and
// write a fresh barrier checkpoint. A checkpointed item is not computed
// when the replay includes it: its last-good value is its first
// publication, served in quarantine tagged core.ErrStale with the
// recovery probe armed. On an env without WithBreaker the checkpointed
// values are passed over and recovered items cold-compute instead.
func Open(env *core.Env, dir string, opt Options, regs ...*core.Registry) (*Plane, *RecoveryStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: creating %s: %w", dir, err)
	}
	p := &Plane{
		dir:  dir,
		env:  env,
		opt:  opt,
		regs: make(map[string]*core.Registry, len(regs)),
		topo: make(map[string][]itemTopo),
		held: make(map[key][]*core.Subscription),
	}
	for _, r := range regs {
		if _, dup := p.regs[r.ID()]; dup {
			return nil, nil, fmt.Errorf("persist: duplicate registry id %q", r.ID())
		}
		p.regs[r.ID()] = r
		p.regOrder = append(p.regOrder, r.ID())
	}
	slices.Sort(p.regOrder)

	rs, err := p.recover()
	if err != nil {
		return nil, nil, err
	}
	// Attach the journal only now: recovery's own replayed operations
	// are never re-journaled.
	env.SetJournal(p)
	// Barrier checkpoint: the recovered state becomes the new baseline
	// and a fresh WAL segment starts empty.
	t0 := time.Now()
	p.mu.Lock()
	err = p.checkpointLocked()
	p.mu.Unlock()
	if err != nil {
		env.SetJournal(nil)
		return nil, nil, err
	}
	rs.BarrierDur = time.Since(t0)
	return p, rs, nil
}

// recover loads and replays dir into the env. It also seeds the
// in-memory mirrors the next checkpoint serializes.
func (p *Plane) recover() (*RecoveryStats, error) {
	rs := &RecoveryStats{}
	t0 := time.Now()
	var rd *recReader
	raw, err := os.ReadFile(filepath.Join(p.dir, "checkpoint.db"))
	switch {
	case err == nil:
		// Read the whole file once before its first record is applied: a
		// defect anywhere is errCorrupt, never a partial restore.
		rd = newCkptReader(raw)
		info, err := rd.check()
		if err != nil {
			return nil, err
		}
		p.seq = info.Seq
		rs.CheckpointSeq, rs.CheckpointNow, rs.CheckpointBytes = info.Seq, info.Now, int64(len(raw))
	case os.IsNotExist(err):
		// Fresh start (or checkpoint lost): replay the WAL alone.
	default:
		return nil, fmt.Errorf("persist: reading checkpoint: %w", err)
	}
	rs.DecodeDur = time.Since(t0)

	t0 = time.Now()
	seg := p.walPath(p.seq)
	walRaw, err := os.ReadFile(seg)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: reading WAL: %w", err)
	}
	payloads, truncated := ReplayWAL(walRaw)
	tail, err := decodeWAL(seg, payloads)
	if err != nil {
		return nil, err
	}
	rs.WALRecords, rs.WALTruncated = len(tail), truncated
	rs.ReplayDur = time.Since(t0)
	if rd == nil && len(tail) == 0 {
		return rs, nil
	}
	rs.Recovered = true
	p.appDefined = make(map[string][]core.Kind)
	defer func() { p.appDefined = nil }()
	for id, reg := range p.regs {
		if kinds := reg.Available(); len(kinds) > 0 {
			p.appDefined[id] = kinds
		}
	}

	// Checkpoint state, record by record in file order: definitions are
	// registered and item snapshots collected per registry, then external
	// subscriptions and the last applied migration per item are replayed.
	// Through them and the WAL tail, an item with a collected snapshot
	// starts serving it instead of computing (core.Env.SetRestoreLookup),
	// which requires the breaker machinery; without it the snapshots are
	// passed over.
	t0 = time.Now()
	var pending []pendingItem // sorted by (registry, kind), as written
	if rd != nil {
		// Resume the pre-crash timeline so probe backoffs and window
		// cadences recover deterministically; a served system paces on
		// from there.
		if vc, ok := p.env.Clock().(*clock.Virtual); ok && rs.CheckpointNow > p.env.Now() {
			vc.AdvanceTo(rs.CheckpointNow)
		}
		var rec ckptRec
		more := rd.next(&rec)
		for ; more && (rec.tag == recDefine || rec.tag == recItem); more = rd.next(&rec) {
			if rec.tag == recDefine {
				p.apply(&rec, rs)
			} else if reg := p.regs[rec.reg]; reg != nil && p.env.HasBreaker() {
				it := pendingItem{reg, core.Kind(rec.kind), core.RestoredItem{Version: rec.n}}
				if it.Value, err = decodeValue(rec.b); err != nil {
					rs.Skipped++
					continue
				}
				if rec.s != "" {
					it.Cause = &restoredError{root: rec.s}
				}
				pending = append(pending, it)
			}
		}
		slices.SortFunc(pending, byRegKind)
		if len(pending) > 0 {
			p.env.SetRestoreLookup(func(reg *core.Registry, kind core.Kind) *core.RestoredItem {
				key := pendingItem{reg: reg, kind: kind}
				if i, ok := slices.BinarySearchFunc(pending, key, byRegKind); ok {
					return &pending[i].RestoredItem
				}
				return nil
			})
			defer p.env.SetRestoreLookup(nil)
		}
		for ; more; more = rd.next(&rec) {
			p.apply(&rec, rs)
		}
	}
	// WAL tail, in commit order.
	for i := range tail {
		p.apply(&tail[i], rs)
	}
	rs.RebuildDur = time.Since(t0)

	// Every checkpointed item still included started serving its
	// snapshot, but a static one, which the kind's current definition
	// makes nothing to restore into. Items excluded by the WAL tail are
	// passed over.
	for i := range pending {
		if m, ok := pending[i].reg.Mechanism(pending[i].kind); ok && m == core.StaticMechanism {
			rs.Skipped++
		} else if ok {
			rs.Restored++
		}
	}
	p.env.Stats().RestoredStale.Add(int64(rs.Restored))
	p.env.Stats().Recoveries.Add(1)
	return rs, nil
}

// apply replays a record of the checkpoint or the WAL tail, a sub record
// as n subscribes, counting each op under its kind or as skipped.
func (p *Plane) apply(rec *ckptRec, rs *RecoveryStats) {
	times := uint64(1)
	if rec.tag == recSub {
		times = rec.n
	}
	for ; times > 0; times-- {
		if !p.applyOp(rec, rs) {
			rs.Skipped++
		}
	}
}

func (p *Plane) applyOp(rec *ckptRec, rs *RecoveryStats) bool {
	k, kind, reg := key{rec.reg, rec.kind}, core.Kind(rec.kind), p.regs[rec.reg]
	if reg == nil {
		return false
	}
	switch rec.tag {
	case recDefine:
		if _, app := slices.BinarySearch(p.appDefined[rec.reg], kind); app {
			// Already re-registered by application code; keep its version.
			return true
		}
		// A kind an earlier record of this replay defined is redefined: the
		// latest record wins, and commit order says the kind is unused here.
		def, err := buildDef(rec.s, string(rec.b))
		if err != nil || def.Kind != kind || reg.Define(def) != nil {
			return false
		}
		rs.Defined++
	case recSub:
		sub, err := reg.Subscribe(kind)
		if err != nil {
			return false
		}
		p.held[k] = append(p.held[k], sub)
		rs.Subscribed++
	case recUnsub:
		hs := p.held[k]
		if len(hs) == 0 {
			return false
		}
		p.held[k] = hs[:len(hs)-1]
		hs[len(hs)-1].Unsubscribe()
	case recMig:
		if reg.Migrate(kind, core.Mechanism(rec.b[0]), clock.Duration(rec.n)) != nil {
			return false
		}
		rs.Migrated++
	}
	p.mirror(rec)
	return true
}

// mirror keeps the subscription counts and migrations the next
// checkpoint serializes in step with a recorded or replayed op. Defines
// have none: checkpoints read them from the live registry (AppendSlots).
func (p *Plane) mirror(rec *ckptRec) {
	if rec.tag == recDefine {
		return
	}
	ts, known := p.topo[rec.reg]
	if !known {
		p.topoIDs, p.topoSorted = append(p.topoIDs, rec.reg), false
	}
	i, ok := slices.BinarySearchFunc(ts, rec.kind, byTopoKind)
	if !ok {
		ts = slices.Insert(ts, i, itemTopo{kind: rec.kind})
	}
	t := &ts[i]
	switch rec.tag {
	case recSub:
		t.subs++
	case recUnsub:
		t.subs = max(t.subs-1, 0)
	case recMig:
		t.mig = &ckptRec{tag: recMig, reg: rec.reg, kind: rec.kind, n: rec.n, b: []byte{rec.b[0]}}
	}
	if t.subs == 0 && t.mig == nil {
		ts = slices.Delete(ts, i, i+1)
	} else if ok {
		return
	}
	p.topo[rec.reg] = ts
}

// Record implements core.Journal: append the op to the WAL as one
// record, maintain the topology mirrors the next checkpoint serializes,
// and checkpoint automatically when the record threshold is crossed. It
// runs with the mutating operation's component lock held (see the
// lock-order comment on Plane).
func (p *Plane) Record(op core.JournalOp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.broken != nil || p.w == nil {
		return
	}
	rec := ckptRec{reg: op.Registry, kind: string(op.Kind)}
	switch op.Op {
	case core.JournalDefine:
		rec.tag, rec.s, rec.b = recDefine, op.Codec, []byte(op.CodecArgs)
	case core.JournalSubscribe:
		rec.tag, rec.n = recSub, 1
	case core.JournalUnsubscribe:
		rec.tag = recUnsub
	case core.JournalMigrate:
		rec.tag, rec.n, rec.b = recMig, uint64(op.Window), []byte{byte(op.To)}
	}
	p.mirror(&rec)
	if err := p.w.append(&rec); err != nil {
		p.failLocked(err)
		return
	}
	st := p.env.Stats()
	st.WALRecords.Add(1)
	st.WALBytes.Store(p.w.bytes)
	p.sinceCkpt++
	if p.opt.CheckpointEvery > 0 && p.sinceCkpt >= p.opt.CheckpointEvery {
		if err := p.checkpointLocked(); err != nil {
			p.failLocked(err)
		}
	}
}

// failLocked records the first persistence failure and stops journaling
// — the plane degrades to non-durable rather than wedging structural
// operations. Err surfaces it.
func (p *Plane) failLocked(err error) {
	if p.broken == nil {
		p.broken = err
	}
	if p.w != nil {
		p.w.close()
		p.w = nil
	}
}

// Err returns the first persistence failure, or nil. A non-nil error
// means journaling stopped at that point and the on-disk state is
// frozen at the last successful write.
func (p *Plane) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// Checkpoint writes a full-plane checkpoint now and truncates the WAL
// at the barrier.
func (p *Plane) Checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("persist: plane closed")
	}
	if p.broken != nil {
		return p.broken
	}
	return p.checkpointLocked()
}

// checkpointLocked streams the plane — mirrors for topology, one pass
// over each live registry for definitions and item snapshots — into a
// new checkpoint file and rotates the WAL segment. It takes no
// component locks: values, versions, mechanisms and windows come from
// AppendSlots (node-RLock and lock-free reads), and subscription counts
// from the plane's own mirror, so it is safe to run inline from Record
// (which holds a component lock).
func (p *Plane) checkpointLocked() error {
	now, seq := p.env.Now(), p.seq+1
	if err := writeCheckpoint(p.dir, seq, now, p.snapshot); err != nil {
		return err
	}
	neww, err := openWAL(p.walPath(seq), p.opt.Sync)
	if err != nil {
		return err
	}
	if p.w != nil {
		// No flush: the checkpoint holds every op of the segment, and a
		// fsynced file costs the filesystem far more to free.
		p.w.f.Close()
	}
	// The segment before the old one too: a crash between a checkpoint's
	// rename and its rotation leaves it behind.
	for _, s := range []uint64{p.seq - 1, p.seq} {
		os.Remove(p.walPath(s))
	}
	p.w, p.seq, p.sinceCkpt = neww, seq, 0
	st := p.env.Stats()
	st.Checkpoints.Add(1)
	st.CheckpointAt.Store(int64(now))
	st.WALBytes.Store(0)
	return nil
}

// snapshot puts the plane's records in file order: per registry its
// codec-backed definitions and the last-good snapshot of every included
// item, then the subscription counts, then the migrations, each section
// in (registry, kind) order. The slots pass walks each registry's mirror
// beside its slots, as both are sorted by kind, and collects the
// migrations still live. A registry the plane does not cover has no
// slots pass, so only its subscription counts are written. p.mu must be
// held.
func (p *Plane) snapshot(w *ckptWriter) {
	var val []byte
	migs := p.migs[:0]
	for _, id := range p.regOrder {
		ts := p.topo[id]
		p.slots = p.regs[id].AppendSlots(p.slots[:0])
		for i := range p.slots {
			s := &p.slots[i]
			// The mirror is last-written intent; an item fully released
			// since its migration reverts to its definition's default
			// mechanism on re-include, so only migrations still live on an
			// included handler are replayable state.
			for ; len(ts) > 0 && ts[0].kind <= string(s.Kind); ts = ts[1:] {
				if m := ts[0].mig; m != nil && ts[0].kind == string(s.Kind) && s.Included && s.Mechanism == core.Mechanism(m.b[0]) {
					migs = append(migs, *m)
					if s.Window > 0 {
						migs[len(migs)-1].n = uint64(s.Window)
					}
				}
			}
			if s.Codec != "" {
				val = append(val[:0], s.Args...)
				w.put(&ckptRec{tag: recDefine, reg: id, kind: string(s.Kind), s: s.Codec, b: val})
			}
			// Static values are rebuilt by Build at replay time, and an
			// item whose error is not its own quarantine's has no
			// last-good value to serve after recovery.
			se, stale := s.Err.(*core.StaleError)
			if !s.Included || s.Mechanism == core.StaticMechanism || s.Err != nil && !stale {
				continue
			}
			rec := ckptRec{tag: recItem, reg: id, kind: string(s.Kind), n: s.Version}
			if stale {
				rec.s = rootCause(se.Cause)
			}
			var ok bool
			if val, ok = appendValue(val[:0], s.Value); ok {
				rec.b = val
				w.put(&rec)
			}
		}
	}
	if !p.topoSorted {
		slices.Sort(p.topoIDs)
		p.topoSorted = true
	}
	for _, id := range p.topoIDs {
		for _, t := range p.topo[id] {
			if t.subs > 0 {
				w.put(&ckptRec{tag: recSub, reg: id, kind: t.kind, n: uint64(t.subs)})
			}
		}
	}
	for i := range migs {
		w.put(&migs[i])
	}
	p.migs = migs
}

// Close writes a final checkpoint, detaches the journal, and releases
// the subscriptions recovery re-created (the checkpoint already carries
// them, so the next recovery re-pins them).
func (p *Plane) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	var err error
	if p.broken == nil {
		err = p.checkpointLocked()
	} else {
		err = p.broken
	}
	p.env.SetJournal(nil)
	if p.w != nil {
		p.w.close()
		p.w = nil
	}
	p.closed = true
	held := p.held
	p.held = nil
	p.mu.Unlock()
	// Release outside p.mu: Unsubscribe takes component locks, and the
	// lock order is component -> Plane.mu, never the reverse.
	for _, hs := range held {
		for _, sub := range hs {
			sub.Unsubscribe()
		}
	}
	return err
}

// Abandon simulates a crash for tests: stop journaling and close file
// handles without a final checkpoint and without releasing recovered
// subscriptions. The on-disk state is exactly what a SIGKILL at this
// instant would leave.
func (p *Plane) Abandon() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.env.SetJournal(nil)
	if p.w != nil {
		p.w.close()
		p.w = nil
	}
	p.closed = true
}
