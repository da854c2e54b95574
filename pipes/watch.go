package pipes

import (
	"context"

	"repro/internal/core"
	"repro/internal/watch"
)

// Re-exported watch types, so applications only import pipes.
type (
	// Watcher is one watch subscriber's bounded delivery queue.
	Watcher = watch.Watcher
	// WatchEvent is one in-process watch notification.
	WatchEvent = watch.Event
	// WatchOptions configure a watch registration (resume version and
	// ring capacity).
	WatchOptions = watch.Options
	// WatchHub is the epoch-diff fan-out hub behind Stream.Watch.
	WatchHub = watch.Hub
	// WatchServer exposes a hub or relay over HTTP (see cmd/mdserve).
	WatchServer = watch.Server
	// WatchClient consumes a WatchServer's mux sessions.
	WatchClient = watch.Client
	// MuxWatch names one (registry, kind, since) watch in a mux
	// session.
	MuxWatch = watch.MuxWatch
	// MuxSession is one client-side mux transport session.
	MuxSession = watch.MuxSession
	// ReconnectMux is a mux session that redials with per-watch resume.
	ReconnectMux = watch.ReconnectMux
	// WatchRelay mirrors an upstream server through one mux session and
	// re-serves it locally (see NewRelay).
	WatchRelay = watch.Relay
	// WatchRelayOptions tune a relay's upstream leg.
	WatchRelayOptions = watch.RelayOptions
	// ReconnectOptions tune a ReconnectMux's redial backoff.
	ReconnectOptions = watch.ReconnectOptions
)

// MetaValue is a metadata item's value as carried in a WatchEvent.
type MetaValue = core.Value

// FloatOf converts a watched metadata value to float64.
func FloatOf(v MetaValue) (float64, error) { return core.Float(v) }

// NewWatchClient creates a client for a WatchServer at base, e.g.
// "http://localhost:7171".
func NewWatchClient(base string) *WatchClient { return watch.NewClient(base) }

// WatchHub returns the system's fan-out hub, creating it (and its
// sweeper goroutine) on first use. All Stream.Watch registrations
// share it, so any number of publications per instant cost one
// coalesced wakeup sweep. Close it when the process is done watching.
func (s *System) WatchHub() *WatchHub {
	if s.hub == nil {
		s.hub = watch.NewHub(s.env)
	}
	return s.hub
}

// Watch registers a watcher on one of the node's metadata items: the
// watcher receives an event whenever the item publishes a new version,
// with snapshot-then-delta catch-up when it joins (or resumes) behind
// the item's current version. Watching includes the item like
// Subscribe would; closing the last watcher releases it.
func (st *Stream) Watch(kind Kind, opt WatchOptions) (*Watcher, error) {
	return st.sys.WatchHub().Watch(st.node.Registry(), kind, opt)
}

// NewRelay connects to an upstream WatchServer and mirrors its whole
// item inventory through exactly one mux session, re-serving it
// locally with the same delivery contract. Serve it with
// NewRelayServer; ctx bounds the upstream session's lifetime.
func NewRelay(ctx context.Context, upstream string, opt WatchRelayOptions) (*WatchRelay, error) {
	return watch.NewRelay(ctx, upstream, opt)
}

// NewRelayServer builds an HTTP server re-serving a relay's mirrored
// items — the downstream face of a fan-out tier.
func NewRelayServer(r *WatchRelay) *WatchServer {
	return watch.NewSourceServer(r)
}
