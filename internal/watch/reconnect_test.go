package watch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"
)

// flapWriter lets a fixed number of mux frames through, then aborts
// the connection — a server that keeps dying mid-stream. The stream
// handler writes exactly one frame per Write.
type flapWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *flapWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	w.remaining--
	return w.ResponseWriter.Write(p)
}

func (w *flapWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

func flapEvery(h http.Handler, frames int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/mux/stream" {
			w = &flapWriter{w, frames}
		}
		h.ServeHTTP(w, req)
	})
}

// pinnedServer serves the test plane (through wrap, when given) with
// "val" pinned, so its version stream survives the teardown of a severed
// session (the hub pin is otherwise the only subscription).
func pinnedServer(t *testing.T, heartbeat time.Duration, wrap func(http.Handler) http.Handler) (*httptest.Server, *Hub, func()) {
	t.Helper()
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	t.Cleanup(h.Close)
	sub, err := r.Subscribe("val")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Unsubscribe)
	srv := NewServer(h, env, r)
	srv.SetHeartbeat(heartbeat)
	handler := srv.Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts, h, publish
}

func TestReconnectMuxFlappingServer(t *testing.T) {
	// Every stream dies after two frames: the session below must redial
	// repeatedly to stay gapless.
	ts, h, publish := pinnedServer(t, 0, func(h http.Handler) http.Handler { return flapEvery(h, 2) })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m := NewClient(ts.URL).MuxReconnect(ctx, ReconnectOptions{
		InitialBackoff: time.Millisecond,
		MaxBackoff:     8 * time.Millisecond,
	})
	defer m.Close()
	attaches := 0
	m.OnResume = func(int) { attaches++ }
	if err := m.Add(1, MuxWatch{Registry: "n1", Kind: "val"}); err != nil {
		t.Fatal(err)
	}

	ev, err := m.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Snapshot || ev.Version != 1 {
		t.Fatalf("first event = %+v, want snapshot v1", ev)
	}
	last := ev.Version
	snapshots := 0
	for i := 0; i < 10; i++ {
		publish()
		h.Barrier()
		ev, err := m.Next()
		if err != nil {
			t.Fatalf("event after publish %d: %v", i, err)
		}
		if ev.Version != last+1 {
			t.Fatalf("version gap: %+v after v%d", ev, last)
		}
		last = ev.Version
		if ev.Snapshot {
			snapshots++
		}
	}
	// With 11 events and 2 frames per stream, at least 4 redials
	// happened; each catch-up is one Snapshot-flagged event, never a
	// replayed delta (the gapless versions above prove no replay), and
	// a redial never costs more than one.
	if redials := attaches - 1; snapshots < 2 || snapshots > redials {
		t.Fatalf("snapshots = %d over %d redials, want >= 2 and at most one per redial", snapshots, redials)
	}
	if m.LastSeen(1) != last {
		t.Fatalf("LastSeen = %d, want %d", m.LastSeen(1), last)
	}
}

func TestReconnectMuxPermanentError(t *testing.T) {
	ts, h, publish := pinnedServer(t, 0, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m := NewClient(ts.URL).MuxReconnect(ctx, fastReconnect())
	defer m.Close()
	rejected := map[uint64]int{}
	m.OnReject = func(id uint64, msg string) {
		if msg == "" {
			t.Errorf("watch %d rejected without a message", id)
		}
		rejected[id]++
	}
	// Not connected yet: both adds are only recorded. The unknown
	// registry is refused per id at the first dial, the good watch works.
	if err := m.Add(1, MuxWatch{Registry: "nope", Kind: "val"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(2, MuxWatch{Registry: "n1", Kind: "val"}); err != nil {
		t.Fatal(err)
	}
	if ev, err := m.Next(); err != nil || ev.ID != 2 || !ev.Snapshot {
		t.Fatalf("good watch event = %+v, %v", ev, err)
	}
	if rejected[1] != 1 || len(rejected) != 1 || m.Watches() != 1 {
		t.Fatalf("rejected = %v with %d watches left, want watch 1 rejected once and one watch left", rejected, m.Watches())
	}

	// A rejection is permanent: the redial does not offer the watch
	// again.
	m.Session().Close()
	publish()
	h.Barrier()
	if ev, err := m.Next(); err != nil || ev.ID != 2 || ev.Version != 2 {
		t.Fatalf("post-redial event = %+v, %v; want watch 2 at v2", ev, err)
	}
	if rejected[1] != 1 || len(rejected) != 1 {
		t.Fatalf("rejected after redial = %v, want watch 1 still rejected once", rejected)
	}

	// Connected: a bad watch is refused by Add itself.
	if err := m.Add(3, MuxWatch{Registry: "n1", Kind: "bogus"}); err == nil || rejected[3] != 1 {
		t.Fatalf("connected Add of an unknown kind = %v (rejected %v), want an error and one OnReject", err, rejected)
	}
}

func TestReconnectMuxGivesUpAfterMaxAttempts(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	base := srv.URL
	srv.Close() // nothing listening: every dial fails

	slept := 0
	m := NewClient(base).MuxReconnect(context.Background(), ReconnectOptions{
		MaxAttempts: 3,
		sleep: func(context.Context, time.Duration) error {
			slept++
			return nil
		},
	})
	var dialErr *url.Error
	if _, err := m.Next(); !errors.As(err, &dialErr) {
		t.Fatalf("Next against a dead server = %v, want the last dial error", err)
	}
	if slept != 2 { // attempts 1 and 2 sleep; attempt 3 returns the error
		t.Fatalf("slept %d times, want 2", slept)
	}
}

func TestReconnectMuxCanceledContext(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { requests.Add(1) }))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewClient(srv.URL).MuxReconnect(ctx, ReconnectOptions{})
	if _, err := m.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("a canceled session made %d requests, want none", n)
	}
}

func TestReconnectMuxHeartbeatTimeout(t *testing.T) {
	// A server that never heartbeats trips the watchdog; through
	// ReconnectMux the timeout is just another redial: the session heals
	// and the next publication arrives.
	ts, h, publish := pinnedServer(t, time.Hour, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	opt := fastReconnect()
	opt.HeartbeatTimeout = 50 * time.Millisecond
	m := NewClient(ts.URL).MuxReconnect(ctx, opt)
	defer m.Close()
	var attaches atomic.Int64
	m.OnResume = func(int) { attaches.Add(1) }
	if err := m.Add(1, MuxWatch{Registry: "n1", Kind: "val"}); err != nil {
		t.Fatal(err)
	}
	if ev, err := m.Next(); err != nil || !ev.Snapshot {
		t.Fatalf("snapshot = %+v, %v", ev, err)
	}
	go func() {
		for attaches.Load() < 2 { // idle until the watchdog has forced a redial
			time.Sleep(time.Millisecond)
		}
		publish()
		h.Barrier()
	}()
	if ev, err := m.Next(); err != nil || ev.Version != 2 {
		t.Fatalf("post-timeout event = %+v, %v; want v2", ev, err)
	}
}
