package bench

import "testing"

// TestE25MuxShape pins the experiment's structural claims on small
// sizes: the mux transport uses exactly one connection whatever the
// watch count, every watch converges on the final version, and
// batching never inflates the delivered count past the unbatched
// bound.
func TestE25MuxShape(t *testing.T) {
	for _, watches := range []int{4, 64} {
		r := RunE25(watches, 30)
		if r.Conns != 1 {
			t.Fatalf("mux at %d watches used %d conns, want 1", r.Watches, r.Conns)
		}
		if r.Delivered < int64(r.Watches) || r.Delivered > int64(r.Watches*r.Publishes) {
			t.Fatalf("mux delivered %d at %d watches, want within [%d, %d]",
				r.Delivered, r.Watches, r.Watches, r.Watches*r.Publishes)
		}
		if r.Frames < 1 || r.EventsPerFrame < 1 {
			t.Fatalf("mux framing at %d watches: frames=%d events/frame=%.1f",
				r.Watches, r.Frames, r.EventsPerFrame)
		}
	}
}
