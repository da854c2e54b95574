package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/watch"
)

// firstEvent opens a one-watch mux session on (registry, kind) resuming
// after since — the per-item case — and returns its first event.
func firstEvent(ctx context.Context, c *watch.Client, registry, kind string, since uint64) (*watch.MuxSession, watch.MuxEvent, error) {
	m, err := c.Mux(ctx)
	if err != nil {
		return nil, watch.MuxEvent{}, err
	}
	rejects, err := m.Add(ctx, map[uint64]watch.MuxWatch{1: {Registry: registry, Kind: kind, Since: since}})
	if err == nil && len(rejects) != 0 {
		err = fmt.Errorf("watch rejected: %v", rejects)
	}
	var ev watch.MuxEvent
	if err == nil {
		ev, err = m.Next()
	}
	if err != nil {
		m.Close()
		return nil, ev, err
	}
	return m, ev, nil
}

// TestServeSmoke boots the demo on an ephemeral port and walks the
// HTTP surface with the mux client: snapshot event, item inventory,
// and hub stats.
func TestServeSmoke(t *testing.T) {
	d, err := startDemo("127.0.0.1:0", "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	c := watch.NewClient(d.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Registry keys carry node ids ("even#1"); discover them first.
	items, err := c.Items(ctx)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(name string) string {
		for k := range items {
			if strings.HasPrefix(k, name+"#") {
				return k
			}
		}
		t.Fatalf("items = %v, no registry named %q", items, name)
		return ""
	}
	even := keyOf("even")
	keyOf("src")
	keyOf("sink")

	st, f, err := firstEvent(ctx, c, even, "inputRate", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !f.Snapshot || f.ID != 1 || !f.Numeric || f.Version == 0 {
		t.Fatalf("first event = %+v, want a numeric %s/inputRate snapshot on watch 1", f, even)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Watchers != 1 {
		t.Fatalf("stats Watchers = %d, want 1", stats.Watchers)
	}
}

// TestServeDurableRestartResume runs a durable demo through a graceful
// restart and then a crash: since-based catch-up must work across
// the restart (the restored item republishes above the version a
// pre-restart watcher saw), and the crash recovery must re-pin the
// demo subscriptions from the WAL alone.
func TestServeDurableRestartResume(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// ---- Life 1: fresh durable instance; note a watched version. ----
	d1, err := startDemo("127.0.0.1:0", dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	c1 := watch.NewClient(d1.URL)
	items, err := c1.Items(ctx)
	if err != nil {
		d1.Close()
		t.Fatal(err)
	}
	var even string
	for k := range items {
		if strings.HasPrefix(k, "even#") {
			even = k
		}
	}
	if even == "" {
		d1.Close()
		t.Fatalf("items = %v, no even registry", items)
	}
	st, f, err := firstEvent(ctx, c1, even, "inputRate", 0)
	if err != nil {
		d1.Close()
		t.Fatal(err)
	}
	seen := f.Version
	st.Close()
	d1.Shutdown(ctx) // graceful: drains sessions, writes final checkpoint

	// ---- Life 2: recover; a since=seen watcher resumes. ----
	d2, err := startDemo("127.0.0.1:0", dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d2.pinned != 0 {
		d2.Close()
		t.Fatalf("restart made %d fresh pins, want recovery to re-pin", d2.pinned)
	}
	c2 := watch.NewClient(d2.URL)
	stats, err := c2.Stats(ctx)
	if err != nil {
		d2.Close()
		t.Fatal(err)
	}
	if stats.Recoveries != 1 || stats.RestoredStale < 1 {
		d2.Close()
		t.Fatalf("stats = Recoveries %d RestoredStale %d, want 1 and >= 1",
			stats.Recoveries, stats.RestoredStale)
	}
	st2, f2, err := firstEvent(ctx, c2, even, "inputRate", seen)
	if err != nil {
		d2.Close()
		t.Fatal(err)
	}
	if f2.Version <= seen {
		d2.Close()
		t.Fatalf("resumed event = %+v, want version above pre-restart %d", f2, seen)
	}
	st2.Close()

	// ---- Life 3: crash life 2 (no final checkpoint), recover again. ----
	d2.Close() // Abandon: WAL and the open-time checkpoint survive
	d3, err := startDemo("127.0.0.1:0", dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Shutdown(ctx)
	if d3.pinned != 0 {
		t.Fatal("crash restart made fresh pins, want recovery to re-pin")
	}
	c3 := watch.NewClient(d3.URL)
	items3, err := c3.Items(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(items3) != len(items) {
		t.Fatalf("post-crash inventory %v, want same registries as %v", items3, items)
	}
	// The demo pins survived the crash: the item is live and watchable
	// with a non-zero version stream.
	st3, f3, err := firstEvent(ctx, c3, even, "inputRate", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !f3.Snapshot || f3.Version == 0 {
		t.Fatalf("post-crash event = %+v, want pinned snapshot", f3)
	}
	st3.Close()
}
