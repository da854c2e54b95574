// Command mdserve runs a small wall-clock demo pipeline and exposes
// its metadata over HTTP via the watch hub — the network face of the
// Section 2.5 monitoring story. Clients (e.g. mdtop -connect) open one
// mux session, add the items they want to watch, and receive
// snapshot-then-delta catch-up followed by coalesced live updates.
//
// Usage:
//
//	mdserve                      # serve on localhost:7171 until interrupted
//	mdserve -addr :8080          # serve elsewhere
//	mdserve -seconds 10          # serve for 10 seconds, then exit
//	mdserve -durable ./mdstate   # persist the metadata plane; restarts
//	                             # recover topology + last-good values
//	mdserve -relay URL           # no local pipeline: mirror the mdserve
//	                             # at URL over ONE upstream mux session
//	                             # and re-serve its items here
//
// With -durable, SIGINT/SIGTERM triggers a graceful shutdown: the HTTP
// server drains open session streams under a deadline and a final
// checkpoint is written, so a restarted mdserve resumes with the same
// pins and version streams (since-based watch catch-up keeps working
// across the restart).
//
// With -relay, this instance is a fan-out tier: however many clients
// watch here, the upstream pays one connection and one event per
// publication. If the upstream restarts, the relay reconnects and
// resumes every watch from its last seen version (one snapshot each).
//
// Endpoints: /mux, /mux/watch, /mux/stream, /items, /stats (see
// watch.Server).
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

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/persist"
	"repro/internal/stream"
	"repro/internal/watch"
)

func main() {
	addr := flag.String("addr", "localhost:7171", "listen address")
	seconds := flag.Int("seconds", 0, "serve for this many seconds, then exit (0 = until interrupted)")
	durable := flag.String("durable", "", "directory for the durable metadata plane (empty = in-memory only)")
	relay := flag.String("relay", "", "serve as a relay mirroring the mdserve at this base URL (no local pipeline)")
	flag.Parse()

	if *relay != "" {
		rs, err := startRelay(*addr, *relay, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *seconds > 0 {
			time.Sleep(time.Duration(*seconds) * time.Second)
			rs.Shutdown()
			return
		}
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
		rs.Shutdown()
		return
	}

	d, err := startDemo(*addr, *durable, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *seconds > 0 {
		time.Sleep(time.Duration(*seconds) * time.Second)
		d.Shutdown(os.Stdout)
		return
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	d.Shutdown(os.Stdout)
}

// relayServer is a running mdserve -relay instance.
type relayServer struct {
	// URL is the server's base URL with the actually bound address.
	URL string

	hs     *http.Server
	relay  *watch.Relay
	cancel context.CancelFunc
}

// startRelay mirrors the mdserve at upstream through one mux session
// and re-serves its items on addr.
func startRelay(addr, upstream string, out io.Writer) (*relayServer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r, err := watch.NewRelay(ctx, upstream, watch.RelayOptions{
		OnResume: func(watches int) {
			fmt.Fprintf(out, "mdserve: relay resumed upstream session (%d watches, one snapshot each)\n", watches)
		},
	})
	if err != nil {
		cancel()
		return nil, err
	}
	srv := watch.NewSourceServer(r)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.Close()
		cancel()
		return nil, err
	}
	rs := &relayServer{
		URL:    "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: srv.Handler()},
		relay:  r,
		cancel: cancel,
	}
	fmt.Fprintf(out, "mdserve: relaying %s on %s (%d watches over 1 upstream connection)\n",
		upstream, rs.URL, r.Watches())
	go rs.hs.Serve(ln)
	return rs, nil
}

// Shutdown stops the relay: the upstream session and local watchers
// close first (ending open streams so the HTTP server can drain).
func (rs *relayServer) Shutdown() {
	rs.relay.Close()
	rs.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := rs.hs.Shutdown(ctx); err != nil {
		rs.hs.Close()
	}
	cancel()
}

// demo is a running mdserve instance: a wall-clock pipeline, a watch
// hub over its registries, an HTTP server, and (optionally) a durable
// metadata plane.
type demo struct {
	// URL is the server's base URL with the actually bound address.
	URL string

	hs      *http.Server
	hub     *watch.Hub
	rc      *clock.Real
	plane   *persist.Plane
	release []func()
}

// startDemo builds the pipeline (src -> even filter -> sink, arrivals
// every 10 ms, periodic stats once per second) and starts serving its
// metadata on addr. The demo items are pinned by server-side
// subscriptions so their version streams survive client churn. When
// dir is non-empty the metadata plane is durable: a prior instance's
// checkpoint + WAL are recovered first (re-creating its pins, with
// checkpointed items serving last-good values until recomputed), and
// the demo pins are only made on a fresh directory — a recovered plane
// already carries them.
func startDemo(addr, dir string, out io.Writer) (*demo, error) {
	rc := clock.NewReal()
	var envOpts []core.EnvOption
	if dir != "" {
		// Recovery serves checkpointed values through quarantine, which
		// needs the breaker machinery armed.
		envOpts = append(envOpts, core.WithBreaker(core.DefaultBreakerPolicy))
	}
	env := core.NewEnv(rc, envOpts...)
	g := graph.New(env)

	schema := stream.Schema{Name: "ticks", Fields: []stream.Field{{Name: "v", Type: "int"}}}
	src := ops.NewSource(g, "src", schema, 0, 1000)
	f := ops.NewFilter(g, "even", schema, func(tp stream.Tuple) bool { return tp[0].(int)%2 == 0 }, 1000)
	sink := ops.NewSink(g, "sink", schema, nil, 0, 0, 1000)
	g.Connect(src, f)
	g.Connect(f, sink)

	d := &demo{rc: rc}
	recovered := false
	if dir != "" {
		plane, rs, err := persist.Open(env, dir, persist.Options{},
			src.Registry(), f.Registry(), sink.Registry())
		if err != nil {
			d.Close()
			return nil, err
		}
		d.plane = plane
		recovered = rs.Subscribed > 0
		if rs.Recovered {
			fmt.Fprintf(out, "mdserve: recovered plane from %s (%v)\n", dir, rs)
		}
	}
	if !recovered {
		for _, pin := range []struct {
			reg  *core.Registry
			kind core.Kind
		}{
			{src.Registry(), ops.KindOutputRate},
			{f.Registry(), ops.KindInputRate},
			{f.Registry(), ops.KindSelectivity},
			{f.Registry(), ops.KindAvgInputRate},
		} {
			sub, err := pin.reg.Subscribe(pin.kind)
			if err != nil {
				d.Close()
				return nil, err
			}
			d.release = append(d.release, sub.Unsubscribe)
		}
	}

	// Arrivals every 10 ms, delivered straight through the operators.
	i := 0
	var arrive func(now clock.Time)
	arrive = func(now clock.Time) {
		el := src.Emit(stream.NewElement(stream.Tuple{i}, now))
		for _, o := range f.Process(el, 0) {
			sink.Process(o, 0)
		}
		i++
		rc.After(10, arrive)
	}
	rc.After(10, arrive)

	d.hub = watch.NewHub(env)
	srv := watch.NewServer(d.hub, env, src.Registry(), f.Registry(), sink.Registry())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		d.Close()
		return nil, err
	}
	d.URL = "http://" + ln.Addr().String()
	fmt.Fprintf(out, "mdserve: listening on %s (POST /mux, POST /mux/watch, GET /mux/stream; e.g. watch %s/%s)\n",
		d.URL, f.Registry().ID(), ops.KindInputRate)
	d.hs = &http.Server{Handler: srv.Handler()}
	go d.hs.Serve(ln)
	return d, nil
}

// Shutdown stops the demo gracefully: the hub closes first (no more
// deliveries), open session streams get a 2 s drain deadline before
// the server cuts them, and — when durable — a final
// checkpoint is written so the next start resumes exactly here.
func (d *demo) Shutdown(out io.Writer) {
	if d.hub != nil {
		d.hub.Close()
		d.hub = nil
	}
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := d.hs.Shutdown(ctx); err != nil {
			d.hs.Close()
		}
		cancel()
		d.hs = nil
	}
	// Close the plane before releasing pins: the final checkpoint must
	// carry the pinned subscriptions (and Close detaches the journal,
	// so the releases below are not recorded as unsubscribes).
	if d.plane != nil {
		if err := d.plane.Close(); err != nil {
			fmt.Fprintf(out, "mdserve: final checkpoint failed: %v\n", err)
		} else {
			fmt.Fprintln(out, "mdserve: final checkpoint written")
		}
		d.plane = nil
	}
	for _, rel := range d.release {
		rel()
	}
	d.release = nil
	d.rc.Stop()
}

// Close stops everything abruptly (dropping open session streams, no final
// checkpoint) — the error-path cleanup; tests use it to simulate a
// crash of a durable instance.
func (d *demo) Close() {
	if d.hs != nil {
		d.hs.Close()
	}
	if d.hub != nil {
		d.hub.Close()
	}
	for _, rel := range d.release {
		rel()
	}
	if d.plane != nil {
		d.plane.Abandon()
	}
	d.rc.Stop()
}
