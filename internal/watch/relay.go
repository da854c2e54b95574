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

// mirror is one mirrored item: the point source its hub point reads
// (the value and error of the latest upstream event) plus that point.
// Only the pump writes it.
type mirror struct {
	registry string
	p        *point

	mu  sync.Mutex
	val core.Value
	err error
	// delivered is the last version fully handed out: every watcher
	// registered before it arrived has it (ItemVersion's anchor).
	delivered atomic.Uint64
}

// ID implements pointSource with the upstream registry's name.
func (m *mirror) ID() string { return m.registry }

// Peek implements pointSource with the latest upstream value.
func (m *mirror) Peek(core.Kind) (core.Value, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.val, m.err
}

// Relay mirrors an upstream watch server through exactly one mux
// session and re-serves it locally, implementing Source so the same
// HTTP Server and mux Sessions run on top of it. 10k downstream
// watchers cost the upstream one connection and one event per
// publication, whatever the local fan-out.
//
// Each mirrored item is a point on the relay's own hub, fed by the
// pump where a plane's is fed by core's watch gate. Delivery preserves
// the 4-property contract end to end: versions are the upstream item
// versions (monotonic per watcher by construction), gaps are
// re-derived locally (an upstream coalesce or resume shows up as a
// version jump and is flagged Coalesced by the watcher ring), a
// Snapshot is only ever the head of a local catch-up, and an upstream
// reconnect resumes from each watch's LastSeen — one Snapshot-flagged
// event per behind watch, never a replay.
type Relay struct {
	cancel context.CancelFunc
	mux    *ReconnectMux
	hub    *Hub

	points map[relayKey]*mirror // immutable after NewRelay
	byID   []*mirror            // upstream watch id-1 -> item
	items  map[string][]string  // upstream inventory at attach time

	attaches atomic.Int64
	done     chan struct{}
}

// NewRelay connects to the upstream server, subscribes its whole item
// inventory over one mux session, and starts mirroring. The context
// bounds the relay's lifetime (Close cancels it too).
func NewRelay(ctx context.Context, upstream string, opt RelayOptions) (*Relay, error) {
	client := NewClient(upstream)
	items, err := client.Items(ctx)
	if err != nil {
		return nil, fmt.Errorf("watch: relay: fetch upstream items: %w", err)
	}
	rctx, cancel := context.WithCancel(ctx)
	r := &Relay{
		cancel: cancel,
		hub:    newHub(&core.Stats{}),
		points: make(map[relayKey]*mirror),
		items:  items,
		done:   make(chan struct{}),
	}
	r.mux = client.MuxReconnect(rctx, opt.Reconnect)
	r.mux.OnResume = func(n int) {
		if r.attaches.Add(1) > 1 {
			r.hub.stats.RelayResumes.Add(1)
			if opt.OnResume != nil {
				opt.OnResume(n)
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
	for _, reg := range regs {
		kinds := append([]string(nil), items[reg]...)
		sort.Strings(kinds)
		for _, kind := range kinds {
			r.byID = append(r.byID, r.mirror(reg, core.Kind(kind)))
			id := uint64(len(r.byID))
			if err := r.mux.Add(id, MuxWatch{Registry: reg, Kind: kind}); err != nil {
				cancel()
				r.hub.Close()
				return nil, fmt.Errorf("watch: relay: subscribe %s/%s: %w", reg, kind, err)
			}
		}
	}
	go r.pump()
	return r, nil
}

// mirror adds the hub point for one upstream item. It has no release,
// so only the hub's Close retires it, never the last watcher leaving.
func (r *Relay) mirror(registry string, kind core.Kind) *mirror {
	m := &mirror{registry: registry}
	m.p = &point{hub: r.hub, pointKey: pointKey{m, kind}}
	r.hub.points[m.p.pointKey] = m.p
	r.points[relayKey{registry, kind}] = m
	return m
}

// pump drains the upstream session for the relay's lifetime.
func (r *Relay) pump() {
	defer close(r.done)
	for {
		ev, err := r.mux.Next()
		if err != nil {
			// Canceled context or exhausted retry budget: stop.
			// Local watchers keep serving the last mirrored values
			// until the relay is closed.
			return
		}
		if i := ev.ID - 1; i < uint64(len(r.byID)) {
			r.apply(r.byID[i], ev)
		}
	}
}

// apply publishes one upstream event into the item's point and
// delivers it inline: a hand-off to the hub's sweeper costs a goroutine
// switch per hop and buys nothing at one local watcher per item.
func (r *Relay) apply(m *mirror, me MuxEvent) {
	if me.Version <= m.p.ver.Load() {
		return // stale duplicate (e.g. the post-resume snapshot)
	}
	// The upstream Snapshot and Coalesced flags are facts about the
	// *upstream* stream and are dropped here. Locally both re-derive —
	// any skipped publication is a version jump, which each watcher ring
	// flags Coalesced itself, and Snapshot marks only the head of a
	// local catch-up (so a mid-stream downstream frame is never
	// Snapshot-flagged, preserving the contract through the hop).
	ev := me.Event(m.registry, m.p.kind)
	// Value before version, as core stores a snapshot before
	// bumpVersion: a catch-up that reads version v must find v's value
	// (or a newer one), never v-1's.
	m.mu.Lock()
	m.val, m.err = ev.Value, ev.Err
	m.mu.Unlock()
	m.p.casMax(me.Version)
	r.hub.deliverPoint(m.p, me.Version)
	m.delivered.Store(me.Version)
	r.hub.stats.RelayEvents.Add(1)
}

// WatchItem implements Source: a local watcher on a mirrored item's
// hub point, with the standard snapshot-then-delta catch-up against
// the last value received upstream.
func (r *Relay) WatchItem(registry string, kind core.Kind, opt Options) (*Watcher, error) {
	if kind == "" {
		return nil, fmt.Errorf("watch: missing kind")
	}
	m := r.points[relayKey{registry, kind}]
	if m == nil {
		if _, ok := r.items[registry]; !ok {
			return nil, fmt.Errorf("watch: unknown registry %q", registry)
		}
		return nil, fmt.Errorf("watch: unknown kind %q in registry %q", kind, registry)
	}
	// A mirrored point is never torn down, so counting the watcher
	// needs no hub lock (compare Hub.Watch).
	m.p.nwatchers.Add(1)
	return r.hub.attach(m.p, opt), nil
}

// ListItems implements Source with the upstream inventory.
func (r *Relay) ListItems() (map[string][]string, error) {
	out := make(map[string][]string, len(r.items))
	for reg, kinds := range r.items {
		out[reg] = append([]string(nil), kinds...)
	}
	return out, nil
}

// SourceStats implements Source with the relay's own counters, which
// its hub accounts into (/stats on its server reports them).
func (r *Relay) SourceStats() *core.Stats { return r.hub.stats }

// ItemVersion reports the highest upstream version mirrored for the
// item (0, false before the first event). Once it reports v, every
// watcher registered before v arrived has v (or a successor) in its
// ring — the quiescence anchor modelcheck polls.
func (r *Relay) ItemVersion(registry string, kind core.Kind) (uint64, bool) {
	var v uint64
	if m := r.points[relayKey{registry, kind}]; m != nil {
		v = m.delivered.Load()
	}
	return v, v > 0
}

// Resumes reports completed upstream reconnect-with-resume cycles.
func (r *Relay) Resumes() int64 { return max(r.attaches.Load()-1, 0) }

// Watches reports the relay's upstream watch count (its whole
// mirrored inventory).
func (r *Relay) Watches() int { return len(r.byID) }

// Close tears down the upstream session, waits for the pump, and
// closes every local watcher with the hub.
func (r *Relay) Close() {
	r.cancel()
	r.mux.Close()
	<-r.done
	r.hub.Close()
}
