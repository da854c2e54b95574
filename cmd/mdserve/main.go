// Command mdserve runs a small demo pipeline on the wall clock and
// serves its metadata over HTTP (see pipes.System.Serve) — the network
// face of the Section 2.5 monitoring story: clients such as mdtop
// -connect watch any number of items over one mux session.
//
// Usage:
//
//	mdserve                           # serve on localhost:7171 until interrupted
//	mdserve -addr :8080 -seconds 10   # serve elsewhere, for 10 seconds
//	mdserve -durable ./mdstate        # persist the plane: a graceful stop checkpoints,
//	                                  # a restart recovers pins, values and versions
//	mdserve -relay URL                # no local pipeline: mirror the mdserve at URL
//	                                  # over ONE upstream mux session, re-serve it here
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/pipes"
)

func main() {
	addr := flag.String("addr", "localhost:7171", "listen address")
	seconds := flag.Int("seconds", 0, "serve for this many seconds, then exit (0 = until interrupted)")
	durable := flag.String("durable", "", "directory for the durable metadata plane (empty = in-memory only)")
	relay := flag.String("relay", "", "serve as a relay mirroring the mdserve at this base URL (no local pipeline)")
	flag.Parse()
	var shutdown func(context.Context)
	var err error
	if *relay != "" {
		shutdown, err = startRelay(*addr, *relay, os.Stdout)
	} else {
		var d *demo
		d, err = startDemo(*addr, *durable, os.Stdout)
		shutdown = func(ctx context.Context) {
			if err := d.Shutdown(ctx); err != nil {
				fmt.Printf("mdserve: final checkpoint failed: %v\n", err)
			} else if *durable != "" {
				fmt.Println("mdserve: final checkpoint written")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *seconds > 0 {
		ctx, stop = context.WithTimeout(ctx, time.Duration(*seconds)*time.Second)
		defer stop()
	}
	<-ctx.Done()
	ctx, stop = context.WithTimeout(context.Background(), 2*time.Second) // to drain open streams
	defer stop()
	shutdown(ctx)
}

// startRelay mirrors the mdserve at upstream over one mux session and
// re-serves its items on addr: one upstream connection however many
// clients watch here, each watch resumed from its version on restart.
func startRelay(addr, upstream string, out io.Writer) (shutdown func(context.Context), err error) {
	r, err := pipes.NewRelay(context.Background(), upstream, pipes.WatchRelayOptions{
		OnResume: func(watches int) {
			fmt.Fprintf(out, "mdserve: relay resumed upstream session (%d watches, one snapshot each)\n", watches)
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.Close()
		return nil, err
	}
	hs := &http.Server{Handler: pipes.NewRelayServer(r).Handler()}
	fmt.Fprintf(out, "mdserve: relaying %s on http://%s (%d watches over 1 upstream connection)\n",
		upstream, ln.Addr(), r.Watches())
	go hs.Serve(ln)
	return func(ctx context.Context) {
		r.Close() // ends the local streams, so the server can drain
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
	}, nil
}

// demo is a running mdserve instance: the demo pipeline served live.
type demo struct {
	*pipes.System
	URL    string // the base URL with the actually bound address
	pinned int    // pins made at start: none when recovery re-pinned them
}

// startDemo builds the pipeline (src -> even filter -> sink, arrivals
// every 10 ms, stats once per second), pins items so their versions
// survive client churn, and serves on addr. With a directory the plane
// is durable, checkpointed at open and at shutdown.
func startDemo(addr, dir string, out io.Writer) (*demo, error) {
	d := &demo{System: pipes.NewSystem(pipes.WithStatWindow(1000),
		pipes.WithDurability(dir, pipes.DurabilityOptions{CheckpointEvery: -1}))} // "" = in memory
	arrivals := pipes.NewConstantRate(10, 10, 0)
	src := d.Source("src", pipes.Schema{Name: "ticks", Fields: []pipes.Field{{Name: "v", Type: "int"}}}, arrivals, 0)
	f := src.Filter("even", func(tp pipes.Tuple) bool { return tp[0].(int)%2 == 0 })
	f.Sink("sink", nil)
	pins := []*pipes.Stream{src, f, f, f} // a recovered plane carries them
	kinds := []pipes.Kind{pipes.KindOutputRate, pipes.KindInputRate, pipes.KindSelectivity, pipes.KindAvgInputRate}
	if dir != "" {
		rs, err := d.OpenDurability()
		if err != nil {
			return nil, err
		}
		if rs.Recovered {
			fmt.Fprintf(out, "mdserve: recovered plane from %s (%v)\n", dir, rs)
		}
		if rs.Subscribed > 0 {
			pins = nil
		}
	}
	arrivals.Start = d.Now() + 10 // a recovered clock resumes at its checkpoint
	for i, st := range pins {
		if _, err := st.Subscribe(kinds[i]); err != nil {
			d.Close()
			return nil, err
		}
	}
	d.pinned = len(pins)

	ln, err := net.Listen("tcp", addr)
	if err == nil {
		err = d.Serve(ln)
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	d.URL = "http://" + ln.Addr().String()
	fmt.Fprintf(out, "mdserve: listening on %s (POST /mux, POST /mux/watch, GET /mux/stream; e.g. watch %s/%s)\n",
		d.URL, f.Metadata().ID(), pipes.KindInputRate)
	return d, nil
}
