package watch

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"
)

// muxTestServer serves the test plane over a real HTTP listener.
// Remove unregisters watch ids in one control round trip.
func (m *MuxSession) Remove(ctx context.Context, ids ...uint64) error {
	_, err := m.control(ctx, muxControl{Remove: ids})
	return err
}

// ID returns the server-assigned session id.
func (m *MuxSession) ID() string { return m.id }

// LastSeen reports the highest version delivered for watch id — its
// resume point.
func (m *ReconnectMux) LastSeen(id uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeen[id]
}

// Watches reports the size of the desired watch set.
func (m *ReconnectMux) Watches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.watches)
}

// SetHeartbeat overrides the keepalive interval with a millisecond-scale
// one; zero keeps the default. Call before serving.
func (s *Server) SetHeartbeat(d time.Duration) {
	if d > 0 {
		s.heartbeat = d
	}
}

func muxTestServer(t *testing.T, heartbeat time.Duration) (*httptest.Server, *Hub, func()) {
	t.Helper()
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	t.Cleanup(h.Close)
	srv := NewServer(h, env, r)
	if heartbeat > 0 {
		srv.SetHeartbeat(heartbeat)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, h, publish
}

// fastReconnect is a reconnect policy tight enough for tests.
func fastReconnect() ReconnectOptions {
	return ReconnectOptions{InitialBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}
}

func TestMuxSessionEndToEnd(t *testing.T) {
	ts, h, publish := muxTestServer(t, 0)
	c := NewClient(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	m, err := c.Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Two independent watches on the same item, one connection. (The
	// static "src" item never publishes, so both ride "val".)
	rejects, err := m.Add(ctx, map[uint64]MuxWatch{
		1: {Registry: "n1", Kind: "val"},
		2: {Registry: "n1", Kind: "val"},
	})
	if err != nil || len(rejects) != 0 {
		t.Fatalf("Add = %v, %v", rejects, err)
	}
	if got := h.stats.MuxSessions.Load(); got != 1 {
		t.Fatalf("MuxSessions = %d with two watches, want 1 (one session, one connection)", got)
	}

	// Both watches catch up with their inclusion snapshots through the
	// one stream.
	snaps := map[uint64]MuxEvent{}
	for len(snaps) < 2 {
		ev, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		snaps[ev.ID] = ev
	}
	for id, ev := range snaps {
		if !ev.Snapshot || ev.Version != 1 {
			t.Fatalf("watch %d snapshot = %+v", id, ev)
		}
	}

	publish()
	h.Barrier()
	deltas := map[uint64]MuxEvent{}
	for len(deltas) < 2 {
		ev, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		deltas[ev.ID] = ev
	}
	for id, ev := range deltas {
		if ev.Version != 2 || ev.Snapshot || !ev.Numeric || ev.Value != 1 {
			t.Fatalf("watch %d delta = %+v; want v2 value 1", id, ev)
		}
	}

	// Remove watch 1, then prove the removal took effect server-side:
	// after a publish plus a fresh add, the stream carries watch 2's
	// delta and watch 3's snapshot but nothing for id 1.
	if err := m.Remove(ctx, 1); err != nil {
		t.Fatal(err)
	}
	publish()
	h.Barrier()
	if rejects, err := m.Add(ctx, map[uint64]MuxWatch{3: {Registry: "n1", Kind: "val"}}); err != nil || len(rejects) != 0 {
		t.Fatalf("re-add = %v, %v", rejects, err)
	}
	got := map[uint64]MuxEvent{}
	for len(got) < 2 {
		ev, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.ID == 1 {
			t.Fatalf("removed watch still delivered: %+v", ev)
		}
		got[ev.ID] = ev
	}
	if ev := got[2]; ev.Version != 3 || ev.Snapshot {
		t.Fatalf("watch 2 post-remove = %+v; want v3 delta", ev)
	}
	if ev := got[3]; !ev.Snapshot || ev.Version != 3 {
		t.Fatalf("watch 3 post-remove = %+v; want v3 snapshot", ev)
	}
	if m.Events() < 4 || m.Frames() < 1 || m.Events() < m.Frames() {
		t.Fatalf("counters: frames=%d events=%d", m.Frames(), m.Events())
	}
}

func TestMuxControlErrors(t *testing.T) {
	ts, _, _ := muxTestServer(t, 0)
	c := NewClient(ts.URL)
	ctx := context.Background()

	m, err := c.Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Per-id errors: the bad watch is reported, the good one works.
	rejects, err := m.Add(ctx, map[uint64]MuxWatch{
		1: {Registry: "nope", Kind: "val"},
		2: {Registry: "n1", Kind: "bogus"},
		3: {Registry: "n1", Kind: "val"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rejects) != 2 || rejects[1] == "" || rejects[2] == "" {
		t.Fatalf("rejects = %v; want errors for ids 1 and 2", rejects)
	}
	if ev, err := m.Next(); err != nil || ev.ID != 3 || !ev.Snapshot {
		t.Fatalf("good watch event = %+v, %v", ev, err)
	}

	// Unknown sessions answer 410 Gone — the redial signal.
	var se *statusError
	if _, err := (&MuxSession{c: c, id: "deadbeef"}).Add(ctx, map[uint64]MuxWatch{1: {Registry: "n1", Kind: "val"}}); !errors.As(err, &se) || se.Code != 410 {
		t.Fatalf("unknown session Add = %v; want 410", err)
	}
}

func TestMuxStreamSingleAttach(t *testing.T) {
	ts, _, _ := muxTestServer(t, 0)
	c := NewClient(ts.URL)
	ctx := context.Background()
	m, err := c.Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A second stream attach on the same session must be refused; the
	// session id is single-consumer by construction.
	resp, err := ts.Client().Get(ts.URL + "/mux/stream?session=" + m.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("second attach status = %d, want 409", resp.StatusCode)
	}
}

func TestMuxHeartbeatsKeepSessionAlive(t *testing.T) {
	ts, _, _ := muxTestServer(t, 10*time.Millisecond)
	c := NewClient(ts.URL)
	c.HeartbeatTimeout = 150 * time.Millisecond
	ctx := context.Background()
	m, err := c.Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, map[uint64]MuxWatch{1: {Registry: "n1", Kind: "val"}}); err != nil {
		t.Fatal(err)
	}
	if ev, err := m.Next(); err != nil || !ev.Snapshot {
		t.Fatalf("snapshot = %+v, %v", ev, err)
	}
	// Idle for several watchdog periods with Next blocked on the
	// stream: each server heartbeat frame resets the watchdog, so the
	// session stays alive well past the timeout.
	done := make(chan error, 1)
	go func() {
		_, err := m.Next()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Next returned during idle: %v", err)
	case <-time.After(400 * time.Millisecond):
	}
}

func TestMuxHeartbeatTimeout(t *testing.T) {
	// A server that never heartbeats trips the client watchdog.
	ts, _, _ := muxTestServer(t, time.Hour)
	c := NewClient(ts.URL)
	c.HeartbeatTimeout = 50 * time.Millisecond
	ctx := context.Background()
	m, err := c.Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, map[uint64]MuxWatch{1: {Registry: "n1", Kind: "val"}}); err != nil {
		t.Fatal(err)
	}
	if ev, err := m.Next(); err != nil || !ev.Snapshot {
		t.Fatalf("snapshot = %+v, %v", ev, err)
	}
	if _, err := m.Next(); err != errHeartbeatTimeout {
		t.Fatalf("idle Next = %v, want errHeartbeatTimeout", err)
	}
}

func TestReconnectMuxResumesWithOneSnapshot(t *testing.T) {
	ts, h, publish := muxTestServer(t, 0)
	c := NewClient(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Pin the item with an independent session: versions are
	// per-inclusion, so without another watcher the server would
	// release the item (and restart its version stream) the moment the
	// severed session is torn down.
	pin, err := c.Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	if _, err := pin.Add(ctx, map[uint64]MuxWatch{1: {Registry: "n1", Kind: "val"}}); err != nil {
		t.Fatal(err)
	}

	resumes := 0
	m := c.MuxReconnect(ctx, fastReconnect())
	m.OnResume = func(int) { resumes++ }
	if err := m.Add(1, MuxWatch{Registry: "n1", Kind: "val"}); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Catch up to v3.
	publish()
	publish()
	h.Barrier()
	var last uint64
	for last < 3 {
		ev, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		last = ev.Version
	}
	if m.LastSeen(1) != 3 {
		t.Fatalf("LastSeen = %d, want 3", m.LastSeen(1))
	}

	// Sever the transport (simulated network drop), publish while
	// disconnected, and verify the redial resumes from LastSeen: the
	// recovery costs exactly one Snapshot-flagged event, not a replay.
	m.Session().Close()
	publish()
	h.Barrier()
	ev, err := m.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Snapshot || ev.Version != 4 {
		t.Fatalf("post-resume event = %+v; want snapshot v4", ev)
	}
	if resumes != 2 { // initial attach + one resume
		t.Fatalf("OnResume fired %d times, want 2", resumes)
	}

	// The stream continues as deltas — no second snapshot.
	publish()
	h.Barrier()
	ev, err = m.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Snapshot || ev.Version != 5 {
		t.Fatalf("post-resume delta = %+v; want v5 delta", ev)
	}
}
