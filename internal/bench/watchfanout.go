package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/watch"
)

// E23Row is one (mode, watchers) cell of the watch fan-out
// experiment.
type E23Row struct {
	// Mode is "hub" (epoch-diff watch hub: O(1) publish, coalesced
	// async sweeps) or "callback" (ablation: every publication invokes
	// every subscriber's callback inline, O(watchers) publish).
	Mode string
	// Watchers is the subscriber count on the single published item.
	Watchers int
	// Publishes is how many publications the run timed.
	Publishes int
	// NsPerPublish is wall time per publication, including (for the
	// hub) the final barrier that drains outstanding sweeps.
	NsPerPublish int64
	// Delivered counts subscriber-visible notifications: callback
	// invocations, or hub events pulled off watcher rings — fewer than
	// Publishes*Watchers when coalescing merged versions.
	Delivered int64
	// Coalesced is the hub's publications absorbed into an already
	// pending wakeup (0 for callback mode).
	Coalesced int64
	// Shed is the hub's notifications shed onto full subscriber rings
	// via coalesce-to-latest overwrite (0 for callback mode).
	Shed int64
}

// E23System builds the fan-out plane: a static "src" and a triggered
// "val" that republishes on every src notification. The returned
// publish fires exactly one new version of "val" per call.
func E23System() (*core.Env, *core.Registry, func()) {
	env := core.NewEnv(clock.NewVirtual())
	r := env.NewRegistry("op")
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
	return env, r, func() {
		n.Add(1)
		r.NotifyChanged("src")
	}
}

// callbackFanout is E23's ablation baseline: the classic per-subscriber
// callback fan-out. As the item's core.WatchSink it synchronously
// invokes every subscriber's callback on the publisher's goroutine, so
// publish cost is O(watchers) — the shape the epoch-diff hub exists to
// avoid. The read lock is what any callback registry that admits
// concurrent subscribes pays per publication; it stays in the baseline.
type callbackFanout struct {
	mu  sync.RWMutex
	cbs []func(version uint64)
}

// Published implements core.WatchSink by calling back every subscriber
// inline.
func (f *callbackFanout) Published(v uint64) {
	f.mu.RLock()
	for _, cb := range f.cbs {
		cb(v)
	}
	f.mu.RUnlock()
}

// RunE23Mode times publishes publications of one item fanned out to
// watchers subscribers through the given mode. Subscriber setup is
// excluded from the timing; for the hub the timing includes a final
// Barrier so every publication's delivery work is inside the window.
func RunE23Mode(mode string, watchers, publishes int, elapsed func(fn func()) int64) E23Row {
	env, r, publish := E23System()
	row := E23Row{Mode: mode, Watchers: watchers, Publishes: publishes}
	switch mode {
	case "callback":
		sub, err := r.Subscribe("val")
		if err != nil {
			panic(err)
		}
		defer sub.Unsubscribe()
		var delivered atomic.Int64
		fan := &callbackFanout{}
		for i := 0; i < watchers; i++ {
			fan.cbs = append(fan.cbs, func(uint64) { delivered.Add(1) })
		}
		if _, err := r.Watch("val", fan); err != nil {
			panic(err)
		}
		defer r.Unwatch("val")
		ns := elapsed(func() {
			for i := 0; i < publishes; i++ {
				publish()
			}
		})
		row.NsPerPublish = ns / int64(publishes)
		row.Delivered = delivered.Load()
	case "hub":
		h := watch.NewHub(env)
		defer h.Close()
		ws := make([]*watch.Watcher, watchers)
		for i := range ws {
			w, err := h.Watch(r, "val", watch.Options{Since: 1, Buffer: 2})
			if err != nil {
				panic(err)
			}
			ws[i] = w
		}
		start := env.Stats().Snapshot()
		ns := elapsed(func() {
			for i := 0; i < publishes; i++ {
				publish()
			}
			h.Barrier()
		})
		row.NsPerPublish = ns / int64(publishes)
		win := env.Stats().Snapshot().Sub(start)
		row.Coalesced = win.CoalescedWakeups
		row.Shed = win.ShedNotifies
		for _, w := range ws {
			for {
				if _, ok := w.Poll(); !ok {
					break
				}
				row.Delivered++
			}
			w.Close()
		}
	default:
		panic(fmt.Sprintf("E23: unknown mode %q", mode))
	}
	return row
}

// RunE23 runs both modes at each watcher count.
func RunE23(watcherCounts []int, publishes int, elapsed func(fn func()) int64) []E23Row {
	var rows []E23Row
	for _, w := range watcherCounts {
		rows = append(rows, RunE23Mode("callback", w, publishes, elapsed))
		rows = append(rows, RunE23Mode("hub", w, publishes, elapsed))
	}
	return rows
}

// E23Table renders the fan-out comparison.
func E23Table(rows []E23Row) *Table {
	t := &Table{
		Title:  "E23 — watch fan-out: epoch-diff hub vs per-subscriber callbacks",
		Note:   "one item, N subscribers, back-to-back publications. The callback baseline pays O(N) inline per publish; the hub pays O(1) per publish (version bump + dirty election) and delivers on an async sweeper that coalesces bursts, so ns/publish stays flat as N grows",
		Header: []string{"mode", "watchers", "publishes", "ns/publish", "delivered", "coalesced", "shed"},
	}
	for _, r := range rows {
		t.Add(r.Mode, r.Watchers, r.Publishes, r.NsPerPublish, r.Delivered, r.Coalesced, r.Shed)
	}
	return t
}
