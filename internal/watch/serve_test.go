package watch

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// oneWatch opens a mux session holding the single watch id 1 on
// (registry, kind) resuming after since — the per-item case. The caller
// closes it (before the server: an open stream blocks its Close).
func oneWatch(t *testing.T, ctx context.Context, c *Client, registry, kind string, since uint64) *MuxSession {
	t.Helper()
	m, err := c.Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rejects, err := m.Add(ctx, map[uint64]MuxWatch{1: {Registry: registry, Kind: kind, Since: since}})
	if err != nil || len(rejects) != 0 {
		m.Close()
		t.Fatalf("Add(%s/%s) = %v, %v", registry, kind, rejects, err)
	}
	return m
}

func TestServerEndToEnd(t *testing.T) {
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	defer h.Close()
	srv := httptest.NewServer(NewServer(h, env, r).Handler())
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	m := oneWatch(t, ctx, c, "n1", "val", 0)
	defer m.Close()

	// Snapshot head: the watch included the item (publishing v1) and
	// the fresh watch is behind.
	ev, err := m.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Snapshot || ev.Version != 1 || ev.ID != 1 {
		t.Fatalf("first event = %+v, want watch 1 snapshot v1", ev)
	}

	publish()
	ev, err = m.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Snapshot || ev.Version != 2 || !ev.Numeric || ev.Value != 1 {
		t.Fatalf("delta event = %+v, want v2 value 1", ev)
	}

	items, err := c.Items(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if kinds := items["n1"]; len(kinds) != 2 {
		t.Fatalf("items[n1] = %v, want [src val]", kinds)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Watchers != 1 {
		t.Fatalf("stats Watchers = %d, want 1", stats.Watchers)
	}
	if stats.CatchUps < 1 {
		t.Fatalf("stats CatchUps = %d, want >= 1", stats.CatchUps)
	}

	// The per-item endpoint is gone, not hidden.
	resp, err := http.Get(srv.URL + "/watch?registry=n1&kind=val")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /watch = %d, want 404", resp.StatusCode)
	}
}

func TestServerWatchErrors(t *testing.T) {
	env, r, _, _ := testPlane(t)
	h := NewHub(env)
	defer h.Close()
	srv := httptest.NewServer(NewServer(h, env, r).Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	for _, tc := range []struct{ reg, kind string }{
		{"nope", "val"},   // unknown registry
		{"n1", ""},        // missing kind
		{"n1", "missing"}, // unknown item
	} {
		m, err := c.Mux(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rejects, err := m.Add(ctx, map[uint64]MuxWatch{1: {Registry: tc.reg, Kind: tc.kind}})
		m.Close()
		if err != nil || rejects[1] == "" {
			t.Fatalf("Add(%q, %q) = %v, %v; want a per-id error for watch 1", tc.reg, tc.kind, rejects, err)
		}
	}
}

func TestServerResume(t *testing.T) {
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	defer h.Close()
	srv := httptest.NewServer(NewServer(h, env, r).Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	// Pin the item for the whole test: publication versions are
	// per-entry-lifetime, and without an application subscription the
	// hub's pin is the only one — a disconnect would release the entry
	// and restart its version stream.
	sub, err := r.Subscribe("val")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	// First session: snapshot, then disconnect after noting the
	// version.
	m := oneWatch(t, ctx, c, "n1", "val", 0)
	ev, err := m.Next()
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	seen := ev.Version

	// Activity while disconnected.
	publish()
	publish()
	h.Barrier()

	// Resume with since=seen: one snapshot covering the gap, nothing
	// replayed.
	m2 := oneWatch(t, ctx, c, "n1", "val", seen)
	defer m2.Close()
	ev2, err := m2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ev2.Snapshot || ev2.Version != seen+2 {
		t.Fatalf("resume event = %+v, want snapshot v%d", ev2, seen+2)
	}

	// Resume when current: no snapshot — the first event is the next
	// publication's delta.
	m3 := oneWatch(t, ctx, c, "n1", "val", ev2.Version)
	defer m3.Close()
	publish()
	h.Barrier()
	ev3, err := m3.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev3.Snapshot || ev3.Version != ev2.Version+1 {
		t.Fatalf("current-resume event = %+v, want v%d delta", ev3, ev2.Version+1)
	}
}

// TestServerControlBodyLimit posts a control body one byte over
// maxControlBody to a live session: the server answers 413, and the
// same session still takes a watch and streams its snapshot.
func TestServerControlBodyLimit(t *testing.T) {
	env, r, _, _ := testPlane(t)
	h := NewHub(env)
	defer h.Close()
	srv := httptest.NewServer(NewServer(h, env, r).Handler())
	defer srv.Close()
	ctx := context.Background()
	m, err := NewClient(srv.URL).Mux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	body := bytes.NewReader(bytes.Repeat([]byte(" "), maxControlBody+1))
	resp, err := http.Post(srv.URL+"/mux/watch?session="+m.ID(), "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("control body of %d bytes = %d, want 413", maxControlBody+1, resp.StatusCode)
	}
	rejects, err := m.Add(ctx, map[uint64]MuxWatch{1: {Registry: "n1", Kind: "val"}})
	if err != nil || len(rejects) != 0 {
		t.Fatalf("Add after the 413 = %v, %v", rejects, err)
	}
	if ev, err := m.Next(); err != nil || ev.ID != 1 || !ev.Snapshot {
		t.Fatalf("first event after the 413 = %+v, %v; want watch 1's snapshot", ev, err)
	}
}
