// Package watch is the fan-out hub of the metadata plane: it turns the
// per-entry publication versions of internal/core (PR 5) into a
// subscription service that scales to very large watcher counts.
//
// The scaling argument is the epoch diff. A watcher is the predicate
// "wake me when version(item) > lastSeen", so a publication does not
// need to visit subscribers at all: it CAS-maxes the item's version
// into the hub's per-item point, marks the point dirty, and kicks a
// single sweeper — O(1), allocation-free, and independent of the
// watcher count. The sweeper wakes once per batch of publications
// (publications landing while a sweep is pending coalesce into it,
// which piggybacks on the PR 3 same-instant scope batches: one batch
// of window publishes produces one wakeup, not one per item per
// subscriber), reads each dirty item's latest value once, and delivers
// one event to each watcher that is behind. Watch delivery is
// sheddable in the PR 4 sense: every watcher has a bounded ring and a
// slow consumer's overflow coalesces to the latest value
// (Stats.ShedNotifies) — publishers never block on watchers.
//
// Late joiners and re-joiners get snapshot-then-delta catch-up: Watch
// compares the caller's last-seen version with the item's current one
// and, when behind, enqueues a single snapshot event (one Peek) before
// the delta stream of versions strictly greater than the snapshot's.
package watch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// shardCount shards each point's wait-list so registration and
// delivery on different shards never contend on one lock.
const shardCount = 8

// defaultBuffer is the per-watcher ring capacity when Options.Buffer
// is zero.
const defaultBuffer = 16

// Options configure one Watch registration.
type Options struct {
	// Since is the watcher's last-seen publication version; 0 means
	// "never saw a value". When the item is already past Since, the
	// watcher receives one snapshot event at the current version, then
	// only versions greater than it.
	Since uint64
	// Buffer is the watcher's ring capacity (16 if zero).
	// When the ring is full the newest slot is overwritten with the
	// latest event (coalesce-to-latest).
	Buffer int
	// Notify, when non-nil, is invoked (never blocking on the caller's
	// behalf — it must only do non-blocking work, e.g. a cap-1 channel
	// send) after every event enqueued to the watcher's ring, in
	// addition to the watcher's own signal channel. A mux Session uses
	// it to aggregate any number of watchers into one wakeup.
	Notify func()
}

// pointSource is where a point reads its item's current value: the
// *core.Registry on a plane, a relay's per-item mirror on a relay.
type pointSource interface {
	ID() string
	Peek(kind core.Kind) (core.Value, error)
}

// pointKey addresses one watched item.
type pointKey struct {
	src  pointSource
	kind core.Kind
}

// point is the hub's per-item state: the highest published version,
// the dirty flag, the intrusive dirty-stack link, and the sharded
// wait-list. One fan-out serves every feeder: on a plane core's watch
// gate calls Published (the publish hot path, which must stay O(1) and
// allocation-free) and the sweeper delivers; on a relay the pump calls
// deliverPoint itself.
type point struct {
	hub *Hub
	pointKey
	// release uninstalls the sink and drops the subscription that keeps
	// the item's entry (and version stream) alive while watched; nil
	// for a mirrored point, which lives until its hub closes.
	release func()

	// ver is the highest version handed to Published (CAS-max: calls
	// may arrive out of order from concurrent publishers).
	ver atomic.Uint64
	// dirty is true while the point awaits a sweep. The CAS false->true
	// elects exactly one publisher to push the point onto the hub's
	// dirty stack, so each point is in the stack at most once.
	dirty atomic.Bool
	// next is the intrusive dirty-stack link. Between the winning
	// dirty-CAS and the sweeper's pop it is owned by exactly one
	// goroutine, so no lock guards it.
	next *point

	// nwatchers counts registered watchers across all shards.
	nwatchers atomic.Int64

	shards [shardCount]struct {
		mu       sync.Mutex
		watchers map[*Watcher]struct{} // made by the shard's first watcher
		n        atomic.Int32          // len(watchers), read without mu
	}
}

// Published implements core.WatchSink: record the version, elect a
// pusher, kick the sweeper. Everything else — the Peek, the fan-out,
// the ring writes — happens on the sweeper goroutine.
func (p *point) Published(v uint64) {
	p.casMax(v)
	if p.dirty.CompareAndSwap(false, true) {
		p.hub.pushDirty(p)
		p.hub.kick()
		return
	}
	// Already awaiting a sweep: this publication coalesced into the
	// pending wakeup.
	p.hub.stats.CoalescedWakeups.Add(1)
}

// casMax raises ver to v; concurrent publishers may deliver versions
// out of order, and the point only ever tracks the maximum.
func (p *point) casMax(v uint64) {
	for {
		cur := p.ver.Load()
		if v <= cur || p.ver.CompareAndSwap(cur, v) {
			return
		}
	}
}

// event reads the item's current value (one Peek) into an event at
// version v.
func (p *point) event(v uint64) Event {
	val, err := p.src.Peek(p.kind)
	return Event{Registry: p.src.ID(), Kind: p.kind, Version: v, Value: val, Err: err}
}

// Hub is an epoch-diff fan-out hub over one environment's registries
// (or a relay's mirrored items). One hub serves any number of items and
// watchers; a single sweeper goroutine performs all per-subscriber work
// for a plane's items, the relay's pump for mirrored ones.
type Hub struct {
	stats *core.Stats

	mu     sync.Mutex // guards points/closed (structural ops only)
	points map[pointKey]*point
	closed bool

	// dirtyHead is a Treiber stack of points awaiting a sweep. Multiple
	// elected pushers CAS onto it; the sweeper detaches the whole stack
	// with one Swap.
	dirtyHead atomic.Pointer[point]

	wake   chan struct{}      // cap 1: pending-wakeup flag
	syncCh chan chan struct{} // Barrier round-trips
	done   chan struct{}
	swept  sync.WaitGroup

	// nextShard round-robins new watchers across wait-list shards.
	nextShard atomic.Uint64
}

// NewHub creates a hub accounting into the environment's stats and
// starts its sweeper goroutine.
func NewHub(env *core.Env) *Hub { return newHub(env.Stats()) }

func newHub(stats *core.Stats) *Hub {
	h := &Hub{
		stats:  stats,
		points: make(map[pointKey]*point),
		wake:   make(chan struct{}, 1),
		syncCh: make(chan chan struct{}),
		done:   make(chan struct{}),
	}
	h.swept.Add(1)
	go h.run()
	return h
}

// pushDirty pushes p onto the dirty stack. Only the publisher that won
// p's dirty-CAS calls this, so p.next has a single writer.
func (h *Hub) pushDirty(p *point) {
	for {
		head := h.dirtyHead.Load()
		p.next = head
		if h.dirtyHead.CompareAndSwap(head, p) {
			return
		}
	}
}

// kick arms the sweeper. A kick that finds one already armed is
// absorbed — that batch of publications shares a single wakeup.
func (h *Hub) kick() {
	select {
	case h.wake <- struct{}{}:
	default:
		h.stats.CoalescedWakeups.Add(1)
	}
}

// run is the sweeper loop: one goroutine performs every sweep, so all
// per-subscriber work is serialized off the publish path.
func (h *Hub) run() {
	defer h.swept.Done()
	for {
		select {
		case <-h.wake:
			h.sweep()
		case reply := <-h.syncCh:
			h.sweep()
			close(reply)
		case <-h.done:
			return
		}
	}
}

// sweep drains the dirty stack repeatedly until a pass finds it empty,
// so publications landing mid-sweep are delivered before the sweeper
// sleeps.
func (h *Hub) sweep() {
	for h.sweepPass() {
		h.stats.Wakeups.Add(1)
	}
}

// sweepPass detaches the current dirty stack and delivers each point.
// It reports whether it processed any point. The pass allocates
// nothing: popping is pointer arithmetic, Peek returns the already
// boxed snapshot, and delivery writes into preallocated rings.
func (h *Hub) sweepPass() bool {
	head := h.dirtyHead.Swap(nil)
	if head == nil {
		return false
	}
	for p := head; p != nil; {
		np := p.next
		p.next = nil
		// Clear dirty BEFORE loading the version: a publisher whose
		// dirty-CAS fails against the still-set flag stored its version
		// first, so this load observes it; a publisher that runs after
		// the clear wins the CAS and schedules the next sweep itself.
		// Either way no publication is left undelivered.
		p.dirty.Store(false)
		v := p.ver.Load()
		h.deliverPoint(p, v)
		p = np
	}
	return true
}

// deliverPoint reads the item's current value once and hands one event
// to every watcher behind v. The sweeper calls it for a plane's points,
// a relay's pump for its mirrored ones.
func (h *Hub) deliverPoint(p *point, v uint64) {
	if p.nwatchers.Load() == 0 {
		return
	}
	ev := p.event(v)
	for i := range p.shards {
		sh := &p.shards[i]
		if sh.n.Load() == 0 {
			continue // see attach
		}
		sh.mu.Lock()
		for w := range sh.watchers {
			w.deliver(ev)
		}
		sh.mu.Unlock()
	}
}

// Watch registers a watcher on (reg, kind). The item must be defined;
// the hub takes (and pins) its own subscription, so watching an item
// includes it like any consumer subscription would. If the item is
// already past opt.Since, the watcher's first event is a snapshot at
// the current version (snapshot-then-delta catch-up); afterwards it
// receives only versions strictly greater than the last one delivered.
func (h *Hub) Watch(reg *core.Registry, kind core.Kind, opt Options) (*Watcher, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, fmt.Errorf("watch: hub is closed")
	}
	p := h.points[pointKey{reg, kind}]
	if p == nil {
		sub, err := reg.Subscribe(kind)
		if err != nil {
			h.mu.Unlock()
			return nil, fmt.Errorf("watch: including %s/%s: %w", reg.ID(), kind, err)
		}
		p = &point{hub: h, pointKey: pointKey{reg, kind}}
		v0, err := reg.Watch(kind, p)
		if err != nil {
			sub.Unsubscribe()
			h.mu.Unlock()
			return nil, err
		}
		p.casMax(v0)
		p.release = func() {
			reg.Unwatch(kind)
			sub.Unsubscribe()
		}
		h.points[p.pointKey] = p
	}
	// Counted under h.mu, so the last-watcher teardown in remove cannot
	// retire p before attach registers the watcher.
	p.nwatchers.Add(1)
	h.mu.Unlock()
	return h.attach(p, opt), nil
}

// attach registers a new watcher on p, which already counts it in
// nwatchers (see Watch). Registration and catch-up are atomic under the
// shard lock, which delivery takes too; delivery skips a shard whose
// count reads 0 unlocked, so the count rises before the version read. A
// publication before that read is covered by the snapshot, one after it
// by the deliverPoint that follows the lock release.
func (h *Hub) attach(p *point, opt Options) *Watcher {
	h.stats.Watchers.Add(1)
	w := newWatcher(p, opt, int(h.nextShard.Add(1)%shardCount))
	sh := &p.shards[w.shard]
	sh.mu.Lock()
	if sh.watchers == nil {
		sh.watchers = make(map[*Watcher]struct{})
	}
	sh.watchers[w] = struct{}{}
	sh.n.Store(int32(len(sh.watchers)))
	if cur := p.ver.Load(); cur > opt.Since {
		ev := p.event(cur)
		ev.Snapshot = true
		w.deliver(ev)
		h.stats.CatchUps.Add(1)
	}
	sh.mu.Unlock()
	return w
}

// remove unregisters w from its point and tears the point down when
// the last watcher leaves: the sink is uninstalled and the pinning
// subscription released, so an unwatched item costs nothing again. A
// mirrored point (no release) stays for the next watcher.
func (h *Hub) remove(p *point, w *Watcher) {
	sh := &p.shards[w.shard]
	sh.mu.Lock()
	_, ok := sh.watchers[w]
	delete(sh.watchers, w)
	sh.n.Store(int32(len(sh.watchers)))
	sh.mu.Unlock()
	if !ok {
		return
	}
	h.stats.Watchers.Add(-1)
	h.mu.Lock()
	last := p.nwatchers.Add(-1) == 0 && p.release != nil && h.points[p.pointKey] == p
	if last {
		delete(h.points, p.pointKey)
	}
	h.mu.Unlock()
	if last {
		p.release()
		// The point may still sit on the dirty stack; the sweeper
		// delivers it to an empty wait-list, which is a no-op.
	}
}

// Barrier returns once every publication that completed before the
// call has been delivered to watcher rings. It is the hub's quiescence
// primitive: Env.Quiesce() then Barrier() guarantees every watcher's
// ring holds the final version of its item.
func (h *Hub) Barrier() {
	reply := make(chan struct{})
	select {
	case h.syncCh <- reply:
		<-reply
	case <-h.done:
	}
}

// Close stops the sweeper, closes every watcher, and releases every
// pinned subscription. Watch fails afterwards.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	points := h.points
	h.points = nil
	h.mu.Unlock()
	close(h.done)
	h.swept.Wait()
	for _, p := range points {
		for i := range p.shards {
			sh := &p.shards[i]
			sh.mu.Lock()
			for w := range sh.watchers {
				delete(sh.watchers, w)
				w.closeRing()
				h.stats.Watchers.Add(-1)
			}
			sh.mu.Unlock()
		}
		if p.release != nil {
			p.release()
		}
	}
}
