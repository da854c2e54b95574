package watch

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// relayUpstream serves the test plane over HTTP as a relay's origin,
// with the registry handle exposed so tests can pin items directly on
// the hub (keeping version streams alive across relay generations).
func relayUpstream(t *testing.T) (*httptest.Server, *Hub, *core.Registry, func()) {
	t.Helper()
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	t.Cleanup(h.Close)
	srv := NewServer(h, env, r)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, h, r, publish
}

// waitVersion polls until the relay has mirrored want for the item.
func waitVersion(t *testing.T, r *Relay, registry, kind string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := r.ItemVersion(registry, core.Kind(kind)); ok && v >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay never mirrored %s/%s v%d", registry, kind, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRelayMirrorsUpstream(t *testing.T) {
	ts, h, r, publish := relayUpstream(t)
	pin, err := h.Watch(r, "val", Options{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rel, err := NewRelay(ctx, ts.URL, RelayOptions{Reconnect: fastReconnect()})
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()

	// The whole upstream inventory rides one session: src + val.
	if got := rel.Watches(); got != 2 {
		t.Fatalf("Watches() = %d, want 2", got)
	}
	items, err := rel.ListItems()
	if err != nil || len(items["n1"]) != 2 {
		t.Fatalf("ListItems = %v, %v", items, err)
	}

	// A local watcher catches up against the mirrored value.
	waitVersion(t, rel, "n1", "val", 1)
	w, err := rel.WatchItem("n1", "val", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ev, ok := w.Next()
	if !ok || !ev.Snapshot || ev.Version != 1 {
		t.Fatalf("catch-up = %+v, %v; want snapshot v1", ev, ok)
	}
	if ev.Registry != "n1" || ev.Kind != "val" {
		t.Fatalf("catch-up addressed %s/%s", ev.Registry, ev.Kind)
	}

	// An upstream publication arrives as a plain delta — never
	// Snapshot-flagged mid-stream, whatever the upstream frame said.
	publish()
	h.Barrier()
	waitVersion(t, rel, "n1", "val", 2)
	ev, ok = w.Next()
	if !ok || ev.Snapshot || ev.Version != 2 {
		t.Fatalf("delta = %+v, %v; want v2 delta", ev, ok)
	}
	if f, err := core.Float(ev.Value); err != nil || f != 1 {
		t.Fatalf("delta value = %v, %v; want 1", ev.Value, err)
	}
	if rel.SourceStats().RelayEvents.Load() < 2 {
		t.Fatalf("RelayEvents = %d, want >= 2", rel.SourceStats().RelayEvents.Load())
	}
}

// TestRelayCarriesTextAndErrors follows a non-numeric value and a
// compute error from the origin through a relay to a downstream client:
// both are text on the wire and must arrive with that text intact.
func TestRelayCarriesTextAndErrors(t *testing.T) {
	env := core.NewEnv(clock.NewVirtual())
	r := env.NewRegistry("n1")
	r.MustDefine(&core.Definition{
		Kind: "schema",
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) { return "a:int,b:string", nil }), nil
		},
	})
	r.MustDefine(&core.Definition{
		Kind: "broken",
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return nil, errors.New("sensor offline")
			}), nil
		},
	})
	h := NewHub(env)
	defer h.Close()
	origin := httptest.NewServer(NewServer(h, env, r).Handler())
	defer origin.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rel, err := NewRelay(ctx, origin.URL, RelayOptions{Reconnect: fastReconnect()})
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	waitVersion(t, rel, "n1", "schema", 1)
	waitVersion(t, rel, "n1", "broken", 1)
	_, wantErr := r.Peek("broken")
	if wantErr == nil {
		t.Fatal("the origin's broken item reports no error")
	}

	tier := httptest.NewServer(NewSourceServer(rel).Handler())
	defer tier.Close()
	m, err := NewClient(tier.URL).Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rejects, err := m.Add(ctx, map[uint64]MuxWatch{
		1: {Registry: "n1", Kind: "schema"},
		2: {Registry: "n1", Kind: "broken"},
	}); err != nil || len(rejects) != 0 {
		t.Fatalf("Add = %v, %v", rejects, err)
	}
	got := map[uint64]MuxEvent{}
	for len(got) < 2 {
		ev, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		got[ev.ID] = ev
	}
	if ev := got[1]; ev.Numeric || ev.Raw != "a:int,b:string" || ev.Err != "" {
		t.Fatalf("schema through the relay = %+v, want Raw %q", ev, "a:int,b:string")
	}
	if ev := got[2]; ev.Err != wantErr.Error() {
		t.Fatalf("broken through the relay = %+v, want Err %q", ev, wantErr)
	}
}

func TestRelayWatchErrors(t *testing.T) {
	ts, _, _, _ := relayUpstream(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rel, err := NewRelay(ctx, ts.URL, RelayOptions{Reconnect: fastReconnect()})
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()

	if _, err := rel.WatchItem("nope", "val", Options{}); err == nil {
		t.Fatal("unknown registry accepted")
	}
	if _, err := rel.WatchItem("n1", "bogus", Options{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := rel.WatchItem("n1", "", Options{}); err == nil {
		t.Fatal("missing kind accepted")
	}
}

// TestRelayKillResume kills a relay mid-stream and proves recovery
// through a replacement costs the downstream exactly one
// Snapshot-flagged event per watch — never a replay, never a gap.
func TestRelayKillResume(t *testing.T) {
	ts, h, r, publish := relayUpstream(t)
	// Pin the item upstream: versions are per-inclusion, and the dead
	// relay's teardown must not release the item (restarting its
	// version stream) before the replacement attaches.
	pin, err := h.Watch(r, "val", Options{Buffer: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	relayA, err := NewRelay(ctx, ts.URL, RelayOptions{Reconnect: fastReconnect()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hsA := &http.Server{Handler: NewSourceServer(relayA).Handler()}
	go hsA.Serve(ln)

	// Downstream: a reconnecting mux client on the relay tier.
	m := NewClient("http://"+addr).MuxReconnect(ctx, fastReconnect())
	defer m.Close()
	if err := m.Add(1, MuxWatch{Registry: "n1", Kind: "val"}); err != nil {
		t.Fatal(err)
	}

	// Catch up through the relay to v3.
	publish()
	publish()
	h.Barrier()
	snapshots := 0
	var last uint64
	for last < 3 {
		ev, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Snapshot {
			snapshots++
		}
		last = ev.Version
	}
	if snapshots > 1 {
		t.Fatalf("%d snapshots during initial catch-up, want at most 1", snapshots)
	}

	// Kill the relay mid-stream and publish while the tier is down.
	hsA.Close()
	relayA.Close()
	publish()
	h.Barrier()

	// Replacement relay: wait for it to mirror v4 before re-listening
	// on the same address, so the downstream redial's catch-up is
	// deterministic.
	relayB, err := NewRelay(ctx, ts.URL, RelayOptions{Reconnect: fastReconnect()})
	if err != nil {
		t.Fatal(err)
	}
	defer relayB.Close()
	waitVersion(t, relayB, "n1", "val", 4)
	lnB, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hsB := &http.Server{Handler: NewSourceServer(relayB).Handler()}
	go hsB.Serve(lnB)
	defer hsB.Close()

	// Recovery: exactly one Snapshot (the v4 catch-up), then deltas.
	ev, err := m.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Snapshot || ev.Version != 4 {
		t.Fatalf("post-kill event = %+v; want snapshot v4", ev)
	}
	publish()
	h.Barrier()
	waitVersion(t, relayB, "n1", "val", 5)
	ev, err = m.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Snapshot || ev.Version != 5 {
		t.Fatalf("post-kill delta = %+v; want v5 delta", ev)
	}
	if relayB.Resumes() != 0 {
		t.Fatalf("fresh relay reports %d resumes", relayB.Resumes())
	}
}

// relayFixture is a relay with one mirrored item (n1/val, upstream
// watch id 1) and one local Session watch on it, and no network: the
// caller feeds apply as the pump would.
func relayFixture(t testing.TB) (*Relay, *mirror, *Session) {
	t.Helper()
	rel := &Relay{
		hub:    newHub(&core.Stats{}),
		points: make(map[relayKey]*mirror),
		items:  map[string][]string{"n1": {"val"}},
	}
	t.Cleanup(rel.hub.Close)
	m := rel.mirror("n1", "val")
	rel.byID = append(rel.byID, m)
	s := NewSession(rel)
	t.Cleanup(s.Close)
	if err := s.Add(1, "n1", "val", Options{}); err != nil {
		t.Fatal(err)
	}
	return rel, m, s
}

// TestRelayApplyAllocs pins what one numeric upstream event costs the
// relay hop: apply (mirror, point delivery, watcher ring, session wake)
// plus the local Session's Poll allocate at most once — the float
// boxing in MuxEvent.Event.
func TestRelayApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	rel, m, s := relayFixture(t)
	var v uint64
	allocs := testing.AllocsPerRun(1000, func() {
		v++
		rel.apply(m, MuxEvent{ID: 1, Version: v, Numeric: true, Value: float64(v) + 0.5})
		if _, ok := s.Poll(); !ok {
			t.Fatal("applied event not polled")
		}
	})
	t.Logf("%.2f allocations per apply + Poll", allocs)
	if allocs > 1 {
		t.Fatalf("apply + Poll costs %.2f allocations, ceiling 1", allocs)
	}
}

// BenchmarkRelayApply times the relay hop's own work per upstream event
// (ns/op is ns per event): apply into the mirrored point and one local
// Session watch, then Poll it back.
func BenchmarkRelayApply(b *testing.B) {
	rel, m, s := relayFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i + 1)
		rel.apply(m, MuxEvent{ID: 1, Version: v, Numeric: true, Value: float64(v)})
		if _, ok := s.Poll(); !ok {
			b.Fatal("applied event not polled")
		}
	}
}

// TestRelayLocalWatchersLifecycle checks the lifecycle a relay's local
// watchers share with the hub's: a large audience on one mirrored item
// gets each upstream publication once, the item's point outlives its
// last watcher, and Close closes every watcher and zeroes the gauge.
func TestRelayLocalWatchersLifecycle(t *testing.T) {
	ts, h, r, publish := relayUpstream(t)
	pin, err := h.Watch(r, "val", Options{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rel, err := NewRelay(ctx, ts.URL, RelayOptions{Reconnect: fastReconnect()})
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	waitVersion(t, rel, "n1", "val", 1)
	gauge := func(want int64) {
		t.Helper()
		if got := rel.SourceStats().Watchers.Load(); got != want {
			t.Fatalf("Watchers = %d, want %d", got, want)
		}
	}

	const n = 1000
	ws := make([]*Watcher, n)
	for i := range ws {
		if ws[i], err = rel.WatchItem("n1", "val", Options{Since: 1}); err != nil {
			t.Fatal(err)
		}
	}
	gauge(n)
	publish()
	h.Barrier()
	waitVersion(t, rel, "n1", "val", 2)
	for i, w := range ws {
		if evs := drain(w); len(evs) != 1 || evs[0].Snapshot || evs[0].Version != 2 {
			t.Fatalf("watcher %d saw %+v, want one v2 delta", i, evs)
		}
		w.Close()
	}
	gauge(0)

	// The mirrored point survived its last watcher: a fresh one catches
	// up at the mirrored version and keeps receiving publications.
	w, err := rel.WatchItem("n1", "val", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ev, ok := w.Next(); !ok || !ev.Snapshot || ev.Version != 2 {
		t.Fatalf("fresh watcher's first event = %+v, %v; want snapshot v2", ev, ok)
	}
	publish()
	h.Barrier()
	waitVersion(t, rel, "n1", "val", 3)
	if ev, ok := w.Next(); !ok || ev.Snapshot || ev.Version != 3 {
		t.Fatalf("fresh watcher's delta = %+v, %v; want v3 delta", ev, ok)
	}
	idle, err := rel.WatchItem("n1", "val", Options{Since: 3})
	if err != nil {
		t.Fatal(err)
	}
	gauge(2)

	rel.Close()
	for i, w := range []*Watcher{w, idle} {
		closed := make(chan bool, 1)
		go func() {
			_, ok := w.Next()
			closed <- !ok
		}()
		select {
		case ok := <-closed:
			if !ok {
				t.Fatalf("watcher %d delivered an event after Close", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("watcher %d's Next still blocks after Close", i)
		}
	}
	gauge(0)
}
