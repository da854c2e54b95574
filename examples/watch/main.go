// Watch demonstrates the epoch-diff watch hub: a consumer subscribes
// to a metadata item's version stream, receives a snapshot frame to
// catch up and then per-publication deltas, disconnects while the
// item keeps changing, and rejoins with its last seen version — the
// whole gap collapses into one snapshot frame instead of a replay.
// A final burst into a tiny subscriber ring shows coalesce-to-latest
// overflow: the publisher never blocks, and the slow consumer still
// ends on the newest version.
//
// Run with:
//
//	go run ./examples/watch
package main

import (
	"fmt"
	"os"

	"repro/pipes"
)

func main() {
	sys := pipes.NewSystem()
	schema := pipes.Schema{Name: "events", Fields: []pipes.Field{{Name: "v", Type: "int"}}}
	node := sys.Source("op", schema, nil, 0)
	reg := node.Metadata()

	// "queue" republishes on every enq event.
	depth := 0
	check(reg.Define(&pipes.Definition{
		Kind:   "queue",
		Events: []string{"enq"},
		Build: func(*pipes.BuildContext) (pipes.Handler, error) {
			return pipes.NewTriggered(func(pipes.Time) (pipes.MetaValue, error) {
				return float64(depth), nil
			}), nil
		},
	}))

	// An application subscription pins the item so its version stream
	// survives watcher churn (versions are per entry lifetime).
	sub, err := node.Subscribe("queue")
	check(err)
	defer sub.Unsubscribe()

	hub := sys.WatchHub()
	defer hub.Close()
	enq := func(n int) {
		for i := 0; i < n; i++ {
			depth++
			reg.FireEvent("enq")
		}
	}
	show := func(ev pipes.WatchEvent) {
		v, err := pipes.FloatOf(ev.Value)
		check(err)
		kind := "delta"
		if ev.Snapshot {
			kind = "snapshot"
		}
		fmt.Printf("  %-8s v%-3d queue=%.0f\n", kind, ev.Version, v)
	}
	next := func(w *pipes.Watcher) pipes.WatchEvent {
		ev, ok := w.Next()
		if !ok {
			check(fmt.Errorf("watcher closed unexpectedly"))
		}
		return ev
	}

	fmt.Println("live watch — join behind, catch up, then per-publication deltas:")
	w, err := node.Watch("queue", pipes.WatchOptions{})
	check(err)
	first := next(w)
	show(first)
	for i := 0; i < 3; i++ {
		enq(1)
		hub.Barrier()
		show(next(w))
	}
	lastSeen := w.LastSent()
	w.Close()
	fmt.Printf("disconnected at v%d; 5 enqueues happen while away\n", lastSeen)
	enq(5)

	fmt.Printf("rejoin with since=%d — the gap collapses into one snapshot:\n", lastSeen)
	w2, err := node.Watch("queue", pipes.WatchOptions{Since: lastSeen})
	check(err)
	show(next(w2))
	enq(1)
	hub.Barrier()
	show(next(w2))
	w2.Close()

	fmt.Println("burst of 100 publications into a 4-slot ring (publisher never blocks):")
	w3, err := node.Watch("queue", pipes.WatchOptions{Buffer: 4})
	check(err)
	defer w3.Close()
	show(next(w3)) // snapshot of the pre-burst state
	enq(100)
	hub.Barrier()
	var last pipes.WatchEvent
	n := 0
	for {
		ev, ok := w3.Poll()
		if !ok {
			break
		}
		last, n = ev, n+1
	}
	v, err := pipes.FloatOf(last.Value)
	check(err)
	fmt.Printf("  delivered as %d event(s) <= ring size; caught up to v%d queue=%.0f\n", n, last.Version, v)

	fmt.Println()
	check(pipes.WriteStats(os.Stdout, sys.Env().Stats().Snapshot()))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
