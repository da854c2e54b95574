package watch

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// testPlane builds an env with one registry carrying a static "src"
// and a triggered "val" that recomputes n on every src notification.
// The returned publish func bumps n and fires a propagation, so each
// call publishes exactly one new version of "val".
func testPlane(t testing.TB) (*core.Env, *core.Registry, *atomic.Int64, func()) {
	t.Helper()
	env := core.NewEnv(clock.NewVirtual())
	r := env.NewRegistry("n1")
	r.MustDefine(&core.Definition{
		Kind:  "src",
		Build: func(*core.BuildContext) (core.Handler, error) { return core.NewStatic(0.0), nil },
	})
	n := new(atomic.Int64)
	r.MustDefine(&core.Definition{
		Kind: "val",
		Deps: []core.DepRef{core.Dep(core.Self(), "src")},
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				return float64(n.Load()), nil
			}), nil
		},
	})
	publish := func() {
		n.Add(1)
		r.NotifyChanged("src")
	}
	return env, r, n, publish
}

func drain(w *Watcher) []Event {
	var evs []Event
	for {
		ev, ok := w.Poll()
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

func TestHubDeliversPublications(t *testing.T) {
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	defer h.Close()

	w, err := h.Watch(r, "val", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The initial inclusion published version 1; a fresh watcher is
	// behind and catches up with a snapshot.
	ev, ok := w.Next()
	if !ok || !ev.Snapshot || ev.Version != 1 {
		t.Fatalf("first event = %+v, %v; want snapshot v1", ev, ok)
	}
	if ev.Registry != "n1" || ev.Kind != "val" {
		t.Fatalf("event addressed %s/%s, want n1/val", ev.Registry, ev.Kind)
	}

	publish()
	h.Barrier()
	ev, ok = w.Next()
	if !ok || ev.Version != 2 || ev.Snapshot {
		t.Fatalf("delta event = %+v, %v; want v2 delta", ev, ok)
	}
	if f, err := core.Float(ev.Value); err != nil || f != 1 {
		t.Fatalf("delta value = %v, %v; want 1", ev.Value, err)
	}
}

func TestHubSnapshotThenDeltaCatchUp(t *testing.T) {
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	defer h.Close()

	// Publish well past any joiner before the first watch.
	w0, err := h.Watch(r, "val", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		publish()
	}
	h.Barrier()
	cur := w0.LastSent()
	if cur != 6 {
		t.Fatalf("horizon = %d, want 6 (include + 5 publishes)", cur)
	}

	// Late joiner: one snapshot at the current version, no replay.
	w, err := h.Watch(r, "val", Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(w)
	if len(evs) != 1 || !evs[0].Snapshot || evs[0].Version != cur {
		t.Fatalf("late joiner saw %+v, want one snapshot at v%d", evs, cur)
	}

	// Resuming joiner already at the horizon: no snapshot, deltas only.
	w2, err := h.Watch(r, "val", Options{Since: cur})
	if err != nil {
		t.Fatal(err)
	}
	if evs := drain(w2); len(evs) != 0 {
		t.Fatalf("caught-up joiner saw %+v, want nothing", evs)
	}
	publish()
	h.Barrier()
	evs = drain(w2)
	if len(evs) != 1 || evs[0].Snapshot || evs[0].Version != cur+1 {
		t.Fatalf("caught-up joiner then saw %+v, want one delta at v%d", evs, cur+1)
	}

	st := env.Stats().Snapshot()
	if st.CatchUps != 2 { // w0 and w (w2 joined current)
		t.Fatalf("CatchUps = %d, want 2", st.CatchUps)
	}
}

func TestHubCoalescesToLatestOnOverflow(t *testing.T) {
	env, r, n, publish := testPlane(t)
	h := NewHub(env)
	defer h.Close()

	w, err := h.Watch(r, "val", Options{Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Barrier after every publish so each one is delivered as its own
	// event (otherwise the point-level epoch diff coalesces them before
	// they ever reach the ring, and the ring never overflows).
	const rounds = 50
	for i := 0; i < rounds; i++ {
		publish()
		h.Barrier()
	}

	evs := drain(w)
	if len(evs) > 2 {
		t.Fatalf("ring of 2 drained %d events", len(evs))
	}
	last := evs[len(evs)-1]
	if last.Version != uint64(rounds+1) {
		t.Fatalf("final version = %d, want %d (coalesce-to-latest keeps the newest)", last.Version, rounds+1)
	}
	if f, err := core.Float(last.Value); err != nil || f != float64(n.Load()) {
		t.Fatalf("final value = %v, want %d", last.Value, n.Load())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Version <= evs[i-1].Version {
			t.Fatalf("versions not strictly increasing: %+v", evs)
		}
	}
	if st := env.Stats().Snapshot(); st.ShedNotifies == 0 {
		t.Fatal("ShedNotifies = 0 after overflowing a 2-slot ring")
	}
}

func TestHubPublishCoalescingStats(t *testing.T) {
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	defer h.Close()
	w, err := h.Watch(r, "val", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 100; i++ {
		publish()
	}
	h.Barrier()
	st := env.Stats().Snapshot()
	if st.Wakeups == 0 {
		t.Fatal("Wakeups = 0 after publications")
	}
	if st.Wakeups+st.CoalescedWakeups < 100 {
		t.Fatalf("Wakeups(%d) + CoalescedWakeups(%d) < 100 publications",
			st.Wakeups, st.CoalescedWakeups)
	}
}

func TestHubTeardownReleasesItem(t *testing.T) {
	env, r, _, _ := testPlane(t)
	h := NewHub(env)
	defer h.Close()

	w1, err := h.Watch(r, "val", Options{})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := h.Watch(r, "val", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsIncluded("val") {
		t.Fatal("watched item not included")
	}
	if st := env.Stats().Snapshot(); st.Watchers != 2 {
		t.Fatalf("Watchers = %d, want 2", st.Watchers)
	}
	w1.Close()
	if !r.IsIncluded("val") {
		t.Fatal("item released while still watched")
	}
	w2.Close()
	if r.IsIncluded("val") {
		t.Fatal("last watcher left but the item is still pinned")
	}
	if st := env.Stats().Snapshot(); st.Watchers != 0 {
		t.Fatalf("Watchers = %d, want 0", st.Watchers)
	}
	// Queued events stay drainable after Close; once drained, Next
	// reports closed instead of blocking.
	for {
		if _, ok := w2.Next(); !ok {
			break
		}
	}
}

func TestHubWatchErrors(t *testing.T) {
	env, r, _, _ := testPlane(t)
	h := NewHub(env)
	if _, err := h.Watch(r, "nope", Options{}); err == nil {
		t.Fatal("Watch on unknown item succeeded")
	}
	h.Close()
	h.Close() // idempotent
	if _, err := h.Watch(r, "val", Options{}); err == nil {
		t.Fatal("Watch on closed hub succeeded")
	}
}

func TestHubManyWatchersOnePublish(t *testing.T) {
	env, r, _, publish := testPlane(t)
	h := NewHub(env)
	defer h.Close()

	const watchers = 1000
	ws := make([]*Watcher, watchers)
	for i := range ws {
		w, err := h.Watch(r, "val", Options{Since: 1})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	publish()
	h.Barrier()
	for i, w := range ws {
		evs := drain(w)
		if len(evs) != 1 || evs[0].Version != 2 {
			t.Fatalf("watcher %d saw %+v, want one v2 event", i, evs)
		}
	}
}

// BenchmarkE23PublishHotPath prices what one publication costs the
// publisher with the hub attached, steady state: watchers=0 is the
// bare propagation plane (no sink installed — the A/B baseline for
// the version-gate overhead), watchers=N has N subscribers with full
// 2-slot rings, so every publication takes the complete hot path
// (CAS-max version, dirty election, sweeper kick) plus a sweeper
// delivery that coalesces-to-latest into the full rings. The hub adds
// no allocations on this path: allocs/op must match the watchers=0
// baseline (the boxing of each recomputed value, which the core pays
// with or without a watch sink).
func BenchmarkE23PublishHotPath(b *testing.B) {
	for _, watchers := range []int{0, 1000} {
		b.Run(fmt.Sprintf("watchers=%d", watchers), func(b *testing.B) {
			env, r, _, publish := testPlane(b)
			sub, err := r.Subscribe("val")
			if err != nil {
				b.Fatal(err)
			}
			defer sub.Unsubscribe()
			var h *Hub
			if watchers > 0 {
				h = NewHub(env)
				defer h.Close()
				for i := 0; i < watchers; i++ {
					w, err := h.Watch(r, "val", Options{Since: 1, Buffer: 2})
					if err != nil {
						b.Fatal(err)
					}
					defer w.Close()
				}
				// Fill every ring so steady state is the
				// coalesce-to-latest overwrite path.
				publish()
				publish()
				h.Barrier()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publish()
			}
			b.StopTimer()
			if h != nil {
				h.Barrier()
			}
		})
	}
}
