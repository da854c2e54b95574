package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/watch"
)

// E25Row is one watch count of the mux transport experiment.
type E25Row struct {
	// Watches is the number of concurrent watches on the published
	// item.
	Watches int
	// Conns is the event-carrying connections the server held during
	// the burst (its live session streams, one connection each): 1
	// whatever the watch count.
	Conns int
	// Publishes is the timed publication burst length.
	Publishes int
	// Delivered counts events received client-side — fewer than
	// Watches*Publishes when coalesce-to-latest merged versions.
	Delivered int64
	// Frames is the binary frames the mux stream carried.
	Frames int64
	// EventsPerFrame is Delivered/Frames — the write amortization the
	// batched framing buys.
	EventsPerFrame float64
	// NsPerEvent is wall time per delivered event from burst start
	// until every watch has seen the final version — the end-to-end
	// serve cost of one event.
	NsPerEvent int64
}

// RunE25 times a burst of publishes publications of one item fanned
// out to watches subscribers over one mux session. Setup (connection,
// watch registration) is excluded from the window; the window closes
// when every watch has observed the final version, so coalescing
// shortens it rather than hiding work. (The per-watch SSE arm this was
// measured against — 29–61× slower, EXPERIMENTS.md "E25" — was retired
// with that transport.)
func RunE25(watches, publishes int) E25Row {
	env, r, publish := E23System()
	h := watch.NewHub(env)
	defer h.Close()
	srv := watch.NewServer(h, env, r)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	m, err := watch.NewClient(ts.URL).Mux(ctx)
	if err != nil {
		panic(err)
	}
	defer m.Close()
	adds := make(map[uint64]watch.MuxWatch, watches)
	for i := 0; i < watches; i++ {
		// Since: 1 skips the catch-up snapshot so the window times
		// only burst deliveries.
		adds[uint64(i+1)] = watch.MuxWatch{Registry: "op", Kind: "val", Since: 1}
	}
	if rejects, err := m.Add(ctx, adds); err != nil || len(rejects) != 0 {
		panic(fmt.Sprintf("E25: mux add: %v %v", rejects, err))
	}
	row := E25Row{Watches: watches, Conns: int(env.Stats().MuxSessions.Load()), Publishes: publishes}
	final := uint64(publishes + 1) // inclusion published v1
	start := time.Now()
	for i := 0; i < publishes; i++ {
		publish()
	}
	h.Barrier()
	// Versions are strictly increasing per watch, so each watch yields
	// the final version exactly once.
	for caught := 0; caught < watches; {
		ev, err := m.Next()
		if err != nil {
			panic(fmt.Sprintf("E25: mux next: %v", err))
		}
		row.Delivered++
		if ev.Version == final {
			caught++
		}
	}
	ns := time.Since(start).Nanoseconds()
	row.Frames = m.Frames()
	if row.Frames > 0 {
		row.EventsPerFrame = float64(m.Events()) / float64(row.Frames)
	}
	row.NsPerEvent = ns / max(row.Delivered, 1)
	return row
}
