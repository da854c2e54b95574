package watch

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// RelayOptions tunes a relay's upstream leg.
type RelayOptions struct {
	// Reconnect is the upstream redial policy (zero value: retry
	// forever, 50ms..2s jittered backoff). HeartbeatTimeout inside it
	// arms the silent-peer watchdog on the upstream stream.
	Reconnect ReconnectOptions
	// OnResume, when set, runs after every upstream reconnect-with-
	// resume (the first attach excluded) with the number of watches
	// resumed — mdserve -relay prints its banner from here.
	OnResume func(watches int)
}

// relayKey addresses one mirrored item by name (a relay has no
// *core.Registry handles, only the upstream's string inventory).
type relayKey struct {
	registry string
	kind     core.Kind
}

// rpoint is one mirrored item: the latest event received upstream
// (transport flags stripped) plus the local watchers fanned out to. Its mutex orders delivery against
// catch-up — ItemVersion can only report v after every watcher ring
// registered before v's arrival contains v (or a successor).
type rpoint struct {
	registry string
	kind     core.Kind

	mu       sync.Mutex
	last     Event
	watchers map[*Watcher]struct{}
}

// Relay mirrors an upstream watch server through exactly one mux
// session and re-serves it locally, implementing Source so the same
// HTTP Server and mux Sessions run on top of it. 10k downstream
// watchers cost the upstream one connection and one event per
// publication, whatever the local fan-out.
//
// Delivery preserves the 4-property contract end to end: versions are
// the upstream item versions (monotonic per watcher by construction),
// gaps are re-derived locally (an upstream coalesce or resume shows up
// as a version jump and is flagged Coalesced by the watcher ring), a
// Snapshot is only ever the head of a local catch-up, and an upstream
// reconnect resumes from each watch's LastSeen — one Snapshot-flagged
// event per behind watch, never a replay.
type Relay struct {
	upstream string
	stats    *core.Stats
	onResume func(int)

	cancel context.CancelFunc
	mux    *ReconnectMux

	points map[relayKey]*rpoint // immutable after NewRelay
	byID   map[uint64]*rpoint   // upstream watch id -> point
	items  map[string][]string  // upstream inventory at attach time

	attaches atomic.Int64
	err      atomic.Value // error: terminal pump failure
	done     chan struct{}
}

// NewRelay connects to the upstream server, subscribes its whole item
// inventory over one mux session, and starts mirroring. The context
// bounds the relay's lifetime (Close cancels it too).
func NewRelay(ctx context.Context, upstream string, opt RelayOptions) (*Relay, error) {
	stats := &core.Stats{}
	client := NewClient(upstream)
	items, err := client.Items(ctx)
	if err != nil {
		return nil, fmt.Errorf("watch: relay: fetch upstream items: %w", err)
	}
	rctx, cancel := context.WithCancel(ctx)
	r := &Relay{
		upstream: upstream,
		stats:    stats,
		onResume: opt.OnResume,
		cancel:   cancel,
		points:   make(map[relayKey]*rpoint),
		byID:     make(map[uint64]*rpoint),
		items:    items,
		done:     make(chan struct{}),
	}
	r.mux = client.MuxReconnect(rctx, opt.Reconnect)
	r.mux.OnResume = func(n int) {
		if r.attaches.Add(1) > 1 {
			stats.RelayResumes.Add(1)
			if r.onResume != nil {
				r.onResume(n)
			}
		}
	}

	// Deterministic id assignment over the sorted inventory; ids are
	// session-scoped, so sorting only aids debugging.
	regs := make([]string, 0, len(items))
	for reg := range items {
		regs = append(regs, reg)
	}
	sort.Strings(regs)
	var id uint64
	for _, reg := range regs {
		kinds := append([]string(nil), items[reg]...)
		sort.Strings(kinds)
		for _, kind := range kinds {
			id++
			p := &rpoint{registry: reg, kind: core.Kind(kind), watchers: make(map[*Watcher]struct{})}
			r.points[relayKey{reg, core.Kind(kind)}] = p
			r.byID[id] = p
			if err := r.mux.Add(id, MuxWatch{Registry: reg, Kind: kind}); err != nil {
				cancel()
				return nil, fmt.Errorf("watch: relay: subscribe %s/%s: %w", reg, kind, err)
			}
		}
	}
	go r.pump()
	return r, nil
}

// pump drains the upstream session for the relay's lifetime.
func (r *Relay) pump() {
	defer close(r.done)
	for {
		ev, err := r.mux.Next()
		if err != nil {
			// Canceled context or exhausted retry budget: park the
			// error and stop. Local watchers keep serving the last
			// mirrored values until the relay is closed.
			r.err.Store(err)
			return
		}
		p := r.byID[ev.ID]
		if p == nil {
			continue
		}
		r.apply(p, ev)
	}
}

// apply publishes one upstream event into the point and its watchers.
func (r *Relay) apply(p *rpoint, me MuxEvent) {
	ev := me.Event(p.registry, p.kind)
	// Strip transport flags: an upstream Snapshot or Coalesced is a
	// fact about the *upstream* stream. Locally both re-derive — any
	// skipped publication is a version jump, which each watcher ring
	// flags Coalesced itself, and Snapshot marks only the head of a
	// local catch-up (so a mid-stream downstream frame is never
	// Snapshot-flagged, preserving the contract through the hop).
	ev.Snapshot, ev.Coalesced = false, false

	p.mu.Lock()
	if me.Version <= p.last.Version {
		p.mu.Unlock()
		return // stale duplicate (e.g. the post-resume snapshot)
	}
	p.last = ev
	for w := range p.watchers {
		w.deliver(ev)
	}
	p.mu.Unlock()
	r.stats.RelayEvents.Add(1)
}

// WatchItem implements Source: a local watcher on a mirrored item,
// with the standard snapshot-then-delta catch-up against the last
// value received upstream.
func (r *Relay) WatchItem(registry string, kind core.Kind, opt Options) (*Watcher, error) {
	if kind == "" {
		return nil, fmt.Errorf("watch: missing kind")
	}
	p := r.points[relayKey{registry, kind}]
	if p == nil {
		if _, ok := r.items[registry]; !ok {
			return nil, fmt.Errorf("watch: unknown registry %q", registry)
		}
		return nil, fmt.Errorf("watch: unknown kind %q in registry %q", kind, registry)
	}
	w := newWatcher(r.stats, opt.Buffer, opt.Since, opt.Notify, func(w *Watcher) { r.detach(p, w) })
	p.mu.Lock()
	if p.last.Version > opt.Since {
		snap := p.last
		snap.Snapshot = true
		w.deliver(snap)
		r.stats.CatchUps.Add(1)
	}
	p.watchers[w] = struct{}{}
	p.mu.Unlock()
	r.stats.Watchers.Add(1)
	return w, nil
}

// detach removes a closed watcher from its point (idempotent).
func (r *Relay) detach(p *rpoint, w *Watcher) {
	p.mu.Lock()
	_, present := p.watchers[w]
	delete(p.watchers, w)
	p.mu.Unlock()
	if present {
		r.stats.Watchers.Add(-1)
	}
}

// ListItems implements Source with the upstream inventory.
func (r *Relay) ListItems() (map[string][]string, error) {
	out := make(map[string][]string, len(r.items))
	for reg, kinds := range r.items {
		out[reg] = append([]string(nil), kinds...)
	}
	return out, nil
}

// SourceStats implements Source with the relay's own counters (a relay
// always owns them; /stats on its server reports them).
func (r *Relay) SourceStats() *core.Stats { return r.stats }

// ItemVersion reports the highest upstream version mirrored for the
// item (0, false before the first event). Once it reports v, every
// watcher registered before v arrived has v (or a successor) in its
// ring — the quiescence anchor modelcheck polls.
func (r *Relay) ItemVersion(registry string, kind core.Kind) (uint64, bool) {
	p := r.points[relayKey{registry, kind}]
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last.Version, p.last.Version > 0
}

// Resumes reports completed upstream reconnect-with-resume cycles.
func (r *Relay) Resumes() int64 {
	n := r.attaches.Load()
	if n <= 1 {
		return 0
	}
	return n - 1
}

// Watches reports the relay's upstream watch count (its whole
// mirrored inventory).
func (r *Relay) Watches() int { return len(r.byID) }

// Err returns the terminal upstream failure, if the pump has stopped.
func (r *Relay) Err() error {
	if v := r.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Done is closed when the upstream pump exits (cancellation or an
// exhausted retry budget).
func (r *Relay) Done() <-chan struct{} { return r.done }

// Close tears down the upstream session and closes every local
// watcher.
func (r *Relay) Close() {
	r.cancel()
	r.mux.Close()
	<-r.done
	for _, p := range r.points {
		p.mu.Lock()
		ws := make([]*Watcher, 0, len(p.watchers))
		for w := range p.watchers {
			ws = append(ws, w)
		}
		for _, w := range ws {
			delete(p.watchers, w)
		}
		p.mu.Unlock()
		for _, w := range ws {
			r.stats.Watchers.Add(-1)
			w.closeRing()
		}
	}
}
