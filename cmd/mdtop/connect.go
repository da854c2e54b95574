package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/pipes"
)

// runConnect attaches mdtop to a running mdserve (or mdserve -relay)
// and prints a fixed number of watch frames followed by the server's
// stats report. The transport is one mux session carrying every
// watched item over a single connection, reconnecting with resume if
// the server bounces. item is "registry/kind"; when empty, every
// advertised item is watched.
func runConnect(base, item string, frames int, since uint64, out io.Writer) error {
	c := pipes.NewWatchClient(base)
	ctx := context.Background()

	// Build the watch list: the one named item, or everything the
	// server advertises.
	type watchName struct{ reg, kind string }
	var names []watchName
	if reg, kind, ok := strings.Cut(item, "/"); ok && reg != "" && kind != "" {
		names = append(names, watchName{reg, kind})
	} else {
		items, err := c.Items(ctx)
		if err != nil {
			return err
		}
		regs := make([]string, 0, len(items))
		for reg := range items {
			regs = append(regs, reg)
		}
		sort.Strings(regs)
		for _, reg := range regs {
			kinds := append([]string(nil), items[reg]...)
			sort.Strings(kinds)
			for _, kind := range kinds {
				names = append(names, watchName{reg, kind})
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("mdtop: server advertises no watchable items")
		}
	}

	attaches := 0
	m := c.MuxReconnect(ctx, pipes.ReconnectOptions{})
	m.OnResume = func(watches int) {
		attaches++
		if attaches == 1 {
			fmt.Fprintf(out, "mdtop: mux session attached (%d watches over 1 connection)\n", watches)
			return
		}
		fmt.Fprintf(out, "mdtop: mux session resumed (%d watches, one snapshot each)\n", watches)
	}
	byID := make(map[uint64]watchName, len(names))
	for i, n := range names {
		id := uint64(i + 1)
		byID[id] = n
		if err := m.Add(id, pipes.MuxWatch{Registry: n.reg, Kind: n.kind, Since: since}); err != nil {
			return err
		}
	}
	defer m.Close()

	fmt.Fprintf(out, "watching %d item(s) on %s via mux (S=snapshot C=coalesced)\n", len(names), base)
	fmt.Fprintf(out, "%-2s %-24s %8s %12s\n", "", "item", "version", "value")
	for i := 0; i < frames; i++ {
		ev, err := m.Next()
		if err != nil {
			return err
		}
		n := byID[ev.ID]
		tag := ""
		switch {
		case ev.Snapshot:
			tag = "S"
		case ev.Coalesced:
			tag = "C"
		}
		val := ev.Raw
		if ev.Numeric {
			val = fmt.Sprintf("%.4f", ev.Value)
		}
		if ev.Err != "" {
			val = "error: " + ev.Err
		}
		fmt.Fprintf(out, "%-2s %-24s %8d %12s\n", tag, n.reg+"/"+n.kind, ev.Version, val)
	}
	if sess := m.Session(); sess != nil && sess.Frames() > 0 {
		fmt.Fprintf(out, "mux client: frames=%d events=%d eventsPerFrame=%.1f\n",
			sess.Frames(), sess.Events(), float64(sess.Events())/float64(sess.Frames()))
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	return pipes.WriteStats(out, stats)
}
