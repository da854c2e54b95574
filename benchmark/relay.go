package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/watch"
)

// relay-ladder: the full path a metadata update travels — propagate ->
// hub sweep -> mux frame -> relay hop -> client decode — under an open
// loop at three fixed rates (light / knee / overload). One generator
// goroutine wakes every millisecond and publishes that tick's burst;
// bursts at one instant are this system's natural traffic (a window
// boundary fires many items at once). Each publication's value is its
// due time, so latency = client decode time - carried due time counts
// generator lateness and coalescing inside the number.

type ladderStep struct {
	name    string
	perTick int64
}

var ladderSteps = []ladderStep{{"r20k", 20}, {"r100k", 100}, {"r400k", 400}}

const (
	ladderTick = int64(time.Millisecond)
	// ladderWarmShare of each step is warm-up, capped at one second.
	ladderWarmShare = 1.0 / 9
	// ladderDrain bounds the wait for every item's final version.
	ladderDrain = 5 * time.Second
	// latencyLimitUs and deliveredLimit define "meets the limit".
	latencyLimitUs = 5000.0
	deliveredLimit = 0.99
	// genLateLimitUs marks a run invalid: the host, not the program,
	// was measured. The Go runtime waits for the timers of an idle
	// process in epoll_wait, whose timeout is whole milliseconds rounded
	// up, so a 1 kHz generator wakes a median ~500 us late on any host
	// (any timer-driven publisher in this runtime does); a median well
	// beyond that is a stalled host.
	genLateLimitUs = 750.0
	// ladderRoundSeconds is the target length of one round: the ladder
	// is climbed several times per slice, each time on a freshly built
	// system, because latency differs more between builds (which
	// goroutine landed on which P) than between windows of one build.
	ladderRoundSeconds = 1.0
	maxLadderRounds    = 9
)

// stepPlan places one ladder step on the run's tick timeline.
type stepPlan struct {
	ladderStep
	firstTick int64 // global index of the step's first tick
	warmTicks int64
	ticks     int64 // warm-up + measured
	firstPub  int64 // global index of the step's first publication
}

func (p stepPlan) pubs() int64 { return p.ticks * p.perTick }

// measuredStart is the due time of the step's first measured tick.
func (p stepPlan) measuredStart() int64 { return (p.firstTick + p.warmTicks) * ladderTick }
func (p stepPlan) measuredNs() int64    { return (p.ticks - p.warmTicks) * ladderTick }

// ladderSchedule is the generated input: which item is published in
// which tick. Publication g goes to item order[g % items], so the k-th
// publication of an item has global index pos[item] + items*k and the
// schedule can be inverted without a table shared between goroutines.
type ladderSchedule struct {
	items int64
	order []int64 // seeded permutation: round-robin visiting order
	pos   []int64 // inverse of order
	steps []stepPlan
	ticks int64
	pubs  int64
}

func newLadderSchedule(items int, stepSeconds float64, seed int64) *ladderSchedule {
	s := &ladderSchedule{items: int64(items)}
	rng := rand.New(rand.NewSource(seed))
	s.order = make([]int64, items)
	s.pos = make([]int64, items)
	for i, v := range rng.Perm(items) {
		s.order[i] = int64(v)
		s.pos[v] = int64(i)
	}
	stepTicks := int64(stepSeconds * 1000)
	if stepTicks < 10 {
		stepTicks = 10
	}
	warm := int64(float64(stepTicks) * ladderWarmShare)
	if warm > 1000 {
		warm = 1000
	}
	for _, st := range ladderSteps {
		p := stepPlan{ladderStep: st, firstTick: s.ticks, warmTicks: warm, ticks: stepTicks, firstPub: s.pubs}
		s.steps = append(s.steps, p)
		s.ticks += p.ticks
		s.pubs += p.pubs()
	}
	return s
}

// locate maps global publication index g to its step and due time.
func (s *ladderSchedule) locate(g int64) (step int, due int64, first bool, ok bool) {
	if g < 0 || g >= s.pubs {
		return 0, 0, false, false
	}
	for i := len(s.steps) - 1; i >= 0; i-- {
		p := &s.steps[i]
		if g >= p.firstPub {
			off := g - p.firstPub
			return i, (p.firstTick + off/p.perTick) * ladderTick, off%p.perTick == 0, true
		}
	}
	return 0, 0, false, false
}

// pubIndex is the global index of item's k-th publication (0-based).
func (s *ladderSchedule) pubIndex(item, k int64) int64 { return s.pos[item] + s.items*k }

// finalCount is how many times item is published over the whole run.
func (s *ladderSchedule) finalCount(item int64) int64 {
	if s.pos[item] >= s.pubs {
		return 0
	}
	return (s.pubs-s.pos[item]-1)/s.items + 1
}

// stepOfDue returns the step whose ticks contain due.
func (s *ladderSchedule) stepOfDue(due int64) int {
	t := due / ladderTick
	for i := len(s.steps) - 1; i > 0; i-- {
		if t >= s.steps[i].firstTick {
			return i
		}
	}
	return 0
}

// stageMark is one observer's latest sighting of an item: which value
// (its due time) and when. Written by one goroutine, read by the next
// stage's; the due/at/due protocol lets the reader detect a torn pair.
type stageMark struct {
	due atomic.Int64
	at  atomic.Int64
}

func (m *stageMark) set(due, at int64) {
	m.due.Store(-1)
	m.at.Store(at)
	m.due.Store(due)
}

// seen returns when the previous stage saw the value with this due
// time, if it is still its latest sighting.
func (m *stageMark) seen(due int64) (int64, bool) {
	if m.due.Load() != due {
		return 0, false
	}
	at := m.at.Load()
	return at, m.due.Load() == due
}

// ladderSystem is one built instance of the path under test.
type ladderSystem struct {
	env    *core.Env
	srcs   []*core.Registry // hidden: the server does not advertise them
	ops    []*core.Registry // advertised: one triggered item each
	stamps []atomic.Int64   // the value item i publishes next

	hub      *watch.Hub
	origin   *loopbackServer
	relay    *watch.Relay
	relaySrv *loopbackServer
	cancel   context.CancelFunc
	mux      *watch.MuxSession

	hubObs, relayObs *watch.Session // traced run only

	addWatchUs float64
}

func ladderRegID(prefix string, i int) string { return fmt.Sprintf("%s%04d", prefix, i) }

// buildLadder builds plane, hub, origin server, relay, relay server and
// the client's mux session with one watch per item. observers adds the
// traced run's two in-process sessions.
func buildLadder(items int, observers bool) (*ladderSystem, error) {
	s := &ladderSystem{
		env:    core.NewEnv(clock.NewVirtual()),
		srcs:   make([]*core.Registry, items),
		ops:    make([]*core.Registry, items),
		stamps: make([]atomic.Int64, items),
	}
	for i := 0; i < items; i++ {
		src := s.env.NewRegistry(ladderRegID("src", i))
		src.MustDefine(&core.Definition{
			Kind:  "in",
			Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(0.0), nil },
		})
		op := s.env.NewRegistry(ladderRegID("op", i))
		op.SetNeighbors(func() []*core.Registry { return []*core.Registry{src} }, nil)
		stamp := &s.stamps[i]
		op.MustDefine(&core.Definition{
			Kind: "val",
			Deps: []core.DepRef{core.Dep(core.Input(0), "in")},
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewTriggered(func(clock.Time) (core.Value, error) {
					return float64(stamp.Load()), nil
				}), nil
			},
		})
		s.srcs[i], s.ops[i] = src, op
	}
	s.hub = watch.NewHub(s.env)
	var err error
	if s.origin, err = serveLoopback(watch.NewServer(s.hub, s.env, s.ops...).Handler()); err != nil {
		s.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if s.relay, err = watch.NewRelay(ctx, s.origin.url, watch.RelayOptions{}); err != nil {
		s.close()
		return nil, fmt.Errorf("relay attach: %w", err)
	}
	if s.relaySrv, err = serveLoopback(watch.NewSourceServer(s.relay).Handler()); err != nil {
		s.close()
		return nil, err
	}
	if s.mux, err = watch.NewClient(s.relaySrv.url).Mux(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("client mux: %w", err)
	}
	adds := make(map[uint64]watch.MuxWatch, items)
	for i := 0; i < items; i++ {
		adds[uint64(i+1)] = watch.MuxWatch{Registry: ladderRegID("op", i), Kind: "val"}
	}
	t0 := time.Now()
	rejects, err := s.mux.Add(ctx, adds)
	if err != nil || len(rejects) != 0 {
		s.close()
		return nil, fmt.Errorf("client mux add: %v %v", rejects, err)
	}
	s.addWatchUs = float64(time.Since(t0).Microseconds()) / float64(items)

	if observers {
		s.hubObs = watch.NewSession(watch.NewHubView(s.hub, s.env, s.ops...))
		s.relayObs = watch.NewSession(s.relay)
		for i := 0; i < items; i++ {
			id, reg := uint64(i+1), ladderRegID("op", i)
			if err := s.hubObs.Add(id, reg, "val", watch.Options{}); err != nil {
				s.close()
				return nil, fmt.Errorf("hub observer: %w", err)
			}
			if err := s.relayObs.Add(id, reg, "val", watch.Options{}); err != nil {
				s.close()
				return nil, fmt.Errorf("relay observer: %w", err)
			}
		}
	}
	return s, nil
}

// close tears the system down front to back. Safe on a partial build.
func (s *ladderSystem) close() {
	if s.hubObs != nil {
		s.hubObs.Close()
	}
	if s.relayObs != nil {
		s.relayObs.Close()
	}
	if s.cancel != nil {
		s.cancel()
	}
	if s.mux != nil {
		s.mux.Close()
	}
	if s.relaySrv != nil {
		s.relaySrv.close()
	}
	if s.relay != nil {
		s.relay.Close()
	}
	if s.origin != nil {
		s.origin.close()
	}
	if s.hub != nil {
		s.hub.Close()
	}
}

// watchState is the client-side oracle state of one watch.
type watchState struct {
	base uint64 // version before the first generated publication
	last uint64
	seen bool
}

// stepTally is what the client measured for one ladder step in one
// round.
type stepTally struct {
	lat       *sampleWindows // us, filed by the value's due time
	events    *windowCounter // filed by decode time
	delivered int64          // events whose version belongs to the step
}

// ladderRun is the state of one round: one built system, one climb.
type ladderRun struct {
	sys   *ladderSystem
	sched *ladderSchedule
	res   *sliceResult
	tr    *tracer
	round int64

	start   time.Time
	started atomic.Bool
	bases   atomic.Int64 // watches whose base version is known
	caught  atomic.Int64 // watches at their final version

	watches []watchState
	steps   []stepTally
	ahead   int64 // events whose value was newer than their version

	// Traced run: per-item sightings and hop samples (step r20k).
	hubMarks, relayMarks []stageMark
	hubLag, upHop, dnHop *sampleWindows

	genLate []float64 // us, one per measured tick
}

// ladderTotals accumulates the rounds of one slice. Every figure is
// kept per window (one or more per step per round); the reported value
// is the median over all windows of all rounds.
type ladderTotals struct {
	p50, p90, rate [][]float64 // by step, one entry per window
	tail           []float64   // r20k latencies of every round, for p99/p999
	pubs           []int64     // by step
	delivered      []int64
	genLate        []float64
	hubLag, upHop  []float64 // traced: one p50 per window
	dnHop          []float64
	hopSamples     int64

	origin, relay                        core.Snapshot
	wire, events, frames, resumes, ahead int64
	addWatchUs                           []float64
}

// ladderRounds is the number of rounds a slice of the given length
// climbs: about one per ladderRoundSeconds, odd (the figures are
// medians over rounds), at most maxLadderRounds.
func ladderRounds(seconds float64) int {
	n := int(seconds / ladderRoundSeconds)
	if n%2 == 0 {
		n--
	}
	return max(1, min(n, maxLadderRounds))
}

// runRelayLadder runs the workload and fills its metrics.
func runRelayLadder(cfg sliceConfig) (*sliceResult, error) {
	res := newSliceResult("relay-ladder")
	traced := cfg.tr != nil
	rounds := ladderRounds(cfg.seconds)
	stepSeconds := cfg.seconds / float64(rounds*len(ladderSteps))
	n := len(ladderSteps)
	tot := &ladderTotals{
		p50: make([][]float64, n), p90: make([][]float64, n), rate: make([][]float64, n),
		pubs: make([]int64, n), delivered: make([]int64, n),
	}
	var setups []float64
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		sys, err := buildLadder(cfg.sizes.ladderItems, traced)
		if err != nil {
			return nil, err
		}
		sched := newLadderSchedule(cfg.sizes.ladderItems, stepSeconds, cfg.seed+int64(round))
		run := newLadderRun(sys, sched, res, cfg.tr, int64(round))
		clientDone := make(chan struct{})
		go run.client(clientDone)
		if err := run.awaitBases(10 * time.Second); err != nil {
			sys.close()
			<-clientDone
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		var obsDone sync.WaitGroup
		if traced {
			obsDone.Add(2)
			go run.observe(sys.hubObs, run.hubMarks, nil, run.hubLag, nil, &obsDone)
			go run.observe(sys.relayObs, run.relayMarks, run.hubMarks, nil, run.upHop, &obsDone)
		}
		before, relayBefore := sys.env.Stats().Snapshot(), sys.relay.SourceStats().Snapshot()
		wireBefore := sys.relaySrv.ln.written.Load()
		evBefore, frBefore := sys.mux.Events(), sys.mux.Frames()

		run.start = time.Now()
		run.started.Store(true)
		run.generate()
		run.drain()
		res.measuredS += time.Since(run.start).Seconds()

		tot.origin = addSnapshots(tot.origin, sys.env.Stats().Snapshot().Sub(before))
		tot.relay = addSnapshots(tot.relay, sys.relay.SourceStats().Snapshot().Sub(relayBefore))
		tot.wire += sys.relaySrv.ln.written.Load() - wireBefore
		tot.events += sys.mux.Events() - evBefore
		tot.frames += sys.mux.Frames() - frBefore
		tot.resumes += sys.relay.Resumes()
		if conns := sys.relaySrv.ln.conns.Load(); conns > 2 {
			res.fail("round %d: client used %d connections", round, conns)
		}
		tot.addWatchUs = append(tot.addWatchUs, sys.addWatchUs)

		sys.close()
		<-clientDone
		obsDone.Wait()
		run.fold(tot)
	}
	res.setupS = median(setups)
	res.setups = int64(len(setups))
	tot.report(res, traced)
	if traced {
		iso, err := measureWatchIsolated(cfg.sizes.ladderItems)
		if err != nil {
			return nil, err
		}
		for k, v := range iso {
			res.vals[k] = v
		}
	}
	return res, nil
}

// addSnapshots sums the watch-path counters of two stats deltas.
func addSnapshots(a, b core.Snapshot) core.Snapshot {
	a.Wakeups += b.Wakeups
	a.CoalescedWakeups += b.CoalescedWakeups
	a.ShedNotifies += b.ShedNotifies
	a.TriggeredUpdates += b.TriggeredUpdates
	return a
}

func newLadderRun(sys *ladderSystem, sched *ladderSchedule, res *sliceResult, tr *tracer, round int64) *ladderRun {
	r := &ladderRun{sys: sys, sched: sched, res: res, tr: tr, round: round, watches: make([]watchState, sched.items)}
	for _, p := range sched.steps {
		n, width := splitWindows(p.measuredNs())
		r.steps = append(r.steps, stepTally{
			lat:    newSampleWindows(n, width, int(p.perTick*1000)),
			events: newWindowCounter(n, width),
		})
	}
	if tr != nil {
		r.hubMarks = make([]stageMark, sched.items)
		r.relayMarks = make([]stageMark, sched.items)
		n, width := splitWindows(sched.steps[0].measuredNs())
		r.hubLag = newSampleWindows(n, width, 20000)
		r.upHop = newSampleWindows(n, width, 20000)
		r.dnHop = newSampleWindows(n, width, 20000)
	}
	return r
}

// awaitBases waits until the client has seen each watch's pre-run
// version (the catch-up snapshot, or the first mirrored event).
func (r *ladderRun) awaitBases(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for r.bases.Load() < r.sched.items {
		if time.Now().After(deadline) {
			return fmt.Errorf("relay-ladder: %d of %d watches caught up after %v", r.bases.Load(), r.sched.items, limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// generate is the open-loop load: one goroutine, one timer wake-up per
// tick, the tick's burst published back to back. A spinning generator
// holds a P and measures the scheduler; a nanosleep generator parks its
// P in a system call and latency then flips between two modes from
// build to build. The runtime timer is also what the system's own
// periodic publishers wake by.
func (r *ladderRun) generate() {
	sys, sched := r.sys, r.sched
	g := int64(0)
	for si := range sched.steps {
		p := &sched.steps[si]
		for t := int64(0); t < p.ticks; t++ {
			due := (p.firstTick + t) * ladderTick
			if d := due - int64(time.Since(r.start)); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if t >= p.warmTicks {
				r.genLate = append(r.genLate, float64(int64(time.Since(r.start))-due)/1e3)
			}
			op := r.opID(p.firstTick + t)
			root := r.tr.begin("bench", "tick."+p.name, 0, op)
			burst := r.tr.begin("core", "NotifyChanged", root, op)
			for k := int64(0); k < p.perTick; k++ {
				i := sched.order[g%sched.items]
				sys.stamps[i].Store(due)
				sys.srcs[i].NotifyChanged("in")
				g++
			}
			r.tr.end(burst, p.perTick)
			r.tr.end(root, 1)
		}
	}
}

// opID is the operation id shared by the spans of one tick.
func (r *ladderRun) opID(tick int64) int64 { return r.round<<32 | tick }

// drain waits for every item's final version to reach the client.
func (r *ladderRun) drain() {
	deadline := time.Now().Add(ladderDrain)
	for r.caught.Load() < r.sched.items && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// client is the consumer at the far end: it decodes the mux stream,
// checks the delivery contract event by event, and files latencies.
func (r *ladderRun) client(done chan struct{}) {
	defer close(done)
	m := r.sys.mux
	var now int64
	lastFrames := int64(-1)
	for {
		ev, err := m.Next()
		if err != nil {
			return // session closed by teardown
		}
		if f := m.Frames(); f != lastFrames {
			// One clock read per decoded frame: every event of a frame
			// became visible together.
			lastFrames = f
			if r.started.Load() {
				now = int64(time.Since(r.start))
			}
		}
		idx := int64(ev.ID) - 1
		if idx < 0 || idx >= r.sched.items {
			r.res.fail("event for unknown watch id %d", ev.ID)
			continue
		}
		st := &r.watches[idx]
		if !st.seen {
			st.seen, st.base, st.last = true, ev.Version, ev.Version
			if r.sched.finalCount(idx) == 0 {
				r.caught.Add(1)
			}
			r.bases.Add(1)
			continue
		}
		r.check(idx, st, ev, now)
	}
}

// check applies the delivery contract to one generated event.
func (r *ladderRun) check(idx int64, st *watchState, ev watch.MuxEvent, now int64) {
	if ev.Version <= st.last {
		r.res.fail("watch %d: version %d after %d", idx, ev.Version, st.last)
		return
	}
	if ev.Version > st.last+1 && !ev.Snapshot && !ev.Coalesced {
		r.res.fail("watch %d: unflagged gap %d -> %d", idx, st.last, ev.Version)
	}
	st.last = ev.Version
	k := int64(ev.Version-st.base) - 1
	step, want, first, ok := r.sched.locate(r.sched.pubIndex(idx, k))
	if !ok {
		r.res.fail("watch %d: version %d was never published", idx, ev.Version)
		return
	}
	if !ev.Numeric || ev.Err != "" {
		r.res.fail("watch %d v%d: non-numeric value (err %q)", idx, ev.Version, ev.Err)
		return
	}
	got := int64(ev.Value)
	if got != want {
		// The hub reads the value once per sweep, after loading the
		// version: a value newer than its version is within contract
		// ("at or after"), but it must still be a stamp of this item.
		if !r.laterStamp(idx, k, got) {
			r.res.fail("watch %d v%d: value %d, published %d", idx, ev.Version, got, want)
			return
		}
		r.ahead++
	}
	if final := st.base + uint64(r.sched.finalCount(idx)); ev.Version == final {
		r.caught.Add(1)
	}

	// Delivery is credited to the step that published the version, the
	// event rate to the step during which it was decoded, the latency
	// to the step whose tick the carried value was due in.
	r.steps[step].delivered++
	ds := r.sched.stepOfDue(now)
	r.steps[ds].events.add(now-r.sched.steps[ds].measuredStart(), 1)
	vs := r.sched.stepOfDue(got)
	vp := &r.sched.steps[vs]
	r.steps[vs].lat.add(got-vp.measuredStart(), float64(now-got)/1e3)

	if r.tr == nil {
		return
	}
	relayAt, ok := r.relayMarks[idx].seen(got)
	if !ok {
		return
	}
	if vs == 0 {
		r.dnHop.add(got-vp.measuredStart(), float64(now-relayAt)/1e3)
	}
	if hubAt, ok := r.hubMarks[idx].seen(got); ok && first && got == want {
		// One traced publication per tick: the first of its burst.
		op := r.opID(got / ladderTick)
		at := func(ns int64) time.Time { return r.start.Add(time.Duration(ns)) }
		root := r.tr.add("bench", "publication", 0, op, at(got), at(now))
		r.tr.add("watch", "hub", root, op, at(got), at(hubAt))
		r.tr.add("watch", "upstream_hop", root, op, at(hubAt), at(relayAt))
		r.tr.add("watch", "downstream_hop", root, op, at(relayAt), at(now))
	}
}

// laterStamp reports whether got is the stamp of a publication of item
// after its k-th.
func (r *ladderRun) laterStamp(item, k, got int64) bool {
	for k++; ; k++ {
		_, due, _, ok := r.sched.locate(r.sched.pubIndex(item, k))
		if !ok || due > got {
			return false
		}
		if due == got {
			return true
		}
	}
}

// observe drains one in-process observer session (traced run): it
// marks each item's latest sighting for the next stage and files the
// lag from due (lag) or from the previous stage's sighting (hop).
func (r *ladderRun) observe(sess *watch.Session, marks, prev []stageMark, lag, hop *sampleWindows, done *sync.WaitGroup) {
	defer done.Done()
	first := &r.sched.steps[0]
	for {
		ev, ok := sess.Next()
		if !ok {
			return
		}
		if !r.started.Load() || ev.Snapshot {
			continue
		}
		f, err := core.Float(ev.Value)
		if err != nil {
			continue
		}
		due, now, idx := int64(f), int64(time.Since(r.start)), ev.ID-1
		marks[idx].set(due, now)
		if r.sched.stepOfDue(due) != 0 {
			continue
		}
		if lag != nil {
			lag.add(due-first.measuredStart(), float64(now-due)/1e3)
		}
		if hop != nil {
			if at, ok := prev[idx].seen(due); ok {
				hop.add(due-first.measuredStart(), float64(now-at)/1e3)
			}
		}
	}
}

// fold runs the round's end-of-run oracle and adds its windows to tot.
func (r *ladderRun) fold(tot *ladderTotals) {
	for i := range r.watches {
		st := &r.watches[i]
		if final := st.base + uint64(r.sched.finalCount(int64(i))); st.last != final {
			r.res.fail("round %d watch %d: final version %d never reached the client (last %d)", r.round, i, final, st.last)
		}
	}
	for i := range r.steps {
		t := &r.steps[i]
		tot.pubs[i] += r.sched.steps[i].pubs()
		tot.delivered[i] += t.delivered
		tot.p50[i] = append(tot.p50[i], t.lat.perWindow(0.5)...)
		tot.p90[i] = append(tot.p90[i], t.lat.perWindow(0.9)...)
		tot.rate[i] = append(tot.rate[i], t.events.rates()...)
	}
	for _, w := range r.steps[0].lat.win {
		tot.tail = append(tot.tail, w...)
	}
	tot.genLate = append(tot.genLate, r.genLate...)
	tot.ahead += r.ahead
	if r.tr != nil {
		tot.hubLag = append(tot.hubLag, r.hubLag.perWindow(0.5)...)
		tot.upHop = append(tot.upHop, r.upHop.perWindow(0.5)...)
		tot.dnHop = append(tot.dnHop, r.dnHop.perWindow(0.5)...)
		tot.hopSamples += int64(r.dnHop.count())
	}
}

// report turns the folded rounds into metrics.
func (tot *ladderTotals) report(res *sliceResult, traced bool) {
	var pubs, delivered int64
	for i := range tot.pubs {
		pubs += tot.pubs[i]
		delivered += tot.delivered[i]
	}
	res.attempted = pubs
	if tot.resumes != 0 {
		res.fail("relay resumed %d times", tot.resumes)
	}

	res.vals["visible_p50_us"] = median(tot.p50[0])
	res.vals["visible_p90_us"] = median(tot.p90[0])
	res.vals["knee_visible_p90_us"] = median(tot.p90[1])
	res.vals["overload_events_per_s"] = median(tot.rate[2])
	res.samples["visible_p50_us"] = int64(len(tot.tail))
	res.samples["visible_p90_us"] = int64(len(tot.tail))
	res.samples["knee_visible_p90_us"] = tot.delivered[1]
	res.samples["overload_events_per_s"] = int64(len(tot.rate[2]))

	sort.Float64s(tot.genLate)
	res.vals["bench.gen_late_p50_us"] = percentile(tot.genLate, 0.5)
	res.vals["bench.gen_late_max_us"] = percentile(tot.genLate, 1)
	res.samples["bench.gen_late_p50_us"] = int64(len(tot.genLate))
	if p50 := res.vals["bench.gen_late_p50_us"]; p50 > genLateLimitUs {
		res.invalid = fmt.Sprintf("generator ran %.0f us late at the median (limit %.0f): the host was measured", p50, genLateLimitUs)
	}

	// The highest step that meets the limit: p90 within the latency
	// limit and (nearly) every publication delivered.
	within := 0.0
	for i, st := range ladderSteps {
		share := safeDiv(float64(tot.delivered[i]), float64(tot.pubs[i]))
		res.vals["watch.delivered_share."+st.name] = share
		if median(tot.p90[i]) <= latencyLimitUs && share >= deliveredLimit {
			within = float64(st.perTick * 1000)
		}
	}
	res.vals["bench.max_rate_within_limit"] = within
	sort.Float64s(tot.tail)
	res.vals["watch.visible_p99_us"] = percentile(tot.tail, 0.99)
	res.vals["watch.visible_p999_us"] = percentile(tot.tail, 0.999)
	res.samples["watch.visible_p99_us"] = int64(len(tot.tail))
	res.samples["watch.visible_p999_us"] = int64(len(tot.tail))

	res.vals["watch.sweeps_per_publication"] = safeDiv(float64(tot.origin.Wakeups), float64(pubs))
	res.vals["watch.coalesced_wakeup_share"] = safeDiv(float64(tot.origin.CoalescedWakeups), float64(pubs))
	res.vals["watch.shed_share"] = safeDiv(float64(tot.origin.ShedNotifies+tot.relay.ShedNotifies), float64(delivered))
	res.vals["watch.events_per_frame"] = safeDiv(float64(tot.events), float64(tot.frames))
	res.vals["watch.wire_bytes_per_event"] = safeDiv(float64(tot.wire), float64(tot.events))
	res.vals["watch.relay_resumes"] = float64(tot.resumes)
	res.vals["watch.value_ahead_share"] = safeDiv(float64(tot.ahead), float64(delivered))
	res.vals["watch.add_watch_us"] = median(tot.addWatchUs)

	if traced {
		hub, up, dn := median(tot.hubLag), median(tot.upHop), median(tot.dnHop)
		res.vals["watch.hub_lag_us"] = hub
		res.vals["watch.upstream_hop_us"] = up
		res.vals["watch.downstream_hop_us"] = dn
		res.vals["watch.unexplained_us"] = res.vals["visible_p50_us"] - hub - up - dn
		res.samples["watch.downstream_hop_us"] = tot.hopSamples
	}
}
