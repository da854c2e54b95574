package modelcheck

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/watch"
)

// This file proves the watch delivery contract (see watch_test.go)
// holds THROUGH a relay hop: publications cross an HTTP mux session
// into a watch.Relay, which strips upstream Snapshot/Coalesced flags
// and re-derives both locally, so these checks catch any hole in that
// re-derivation.

// relayPlane serves watchPlane over a real HTTP server and hosts the
// watchers on a relay mirroring it over one mux session. Its barrier
// waits until the relay has mirrored version v — quiescence across the
// network hop (the hub barrier alone only covers the upstream rings).
func relayPlane(t *testing.T) deliveryPlane {
	t.Helper()
	env, r, publish := watchPlane(t)
	h := watch.NewHub(env)
	t.Cleanup(h.Close)
	srv := watch.NewServer(h, env, r)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rel, err := watch.NewRelay(ctx, ts.URL, watch.RelayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rel.Close)
	barrier := func(v uint64) (uint64, bool) {
		h.Barrier()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if got, ok := rel.ItemVersion("w1", "val"); ok && got >= v {
				return got, ok
			}
			if time.Now().After(deadline) {
				t.Fatalf("relay never mirrored w1/val v%d", v)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return deliveryPlane{
		open:    func(o watch.Options) (*watch.Watcher, error) { return rel.WatchItem("w1", "val", o) },
		publish: publish,
		barrier: barrier,
	}
}

// TestRelayDeliverySequential runs the seeded schedule on the relay.
func TestRelayDeliverySequential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			p := relayPlane(t)
			p.barrier(1) // the pinning subscription published v1
			deliverySchedule(t, p, rng, 120)
		})
	}
}

// TestRelayStressConcurrent runs deliveryStress on the relay, where the
// 1-slot ring sheds on top of upstream mux coalescing. Run it with -race.
func TestRelayStressConcurrent(t *testing.T) {
	deliveryStress(t, relayPlane(t))
}
