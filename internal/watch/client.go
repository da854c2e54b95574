package watch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// errHeartbeatTimeout reports a stream whose peer went silent past the
// heartbeat deadline: no event or heartbeat frame arrived in time, so
// the TCP peer is presumed dead even though the connection never
// errored. It is reconnectable — ReconnectMux redials on it like any
// transport failure.
var errHeartbeatTimeout = errors.New("watch: heartbeat timeout")

// Client consumes a Server's mux sessions — the library behind
// cmd/mdtop's -connect mode. It uses only net/http.
type Client struct {
	base string
	hc   *http.Client

	// HeartbeatTimeout, when positive, arms a watchdog on every session
	// this client opens: if no frame (events or heartbeat) arrives for
	// this long, the session fails with errHeartbeatTimeout instead of
	// hanging on a dead peer. Set it above the server's heartbeat
	// interval (e.g. 4x).
	HeartbeatTimeout time.Duration
}

// NewClient creates a client for the server at base (e.g.
// "http://localhost:7171").
func NewClient(base string) *Client {
	return &Client{base: base, hc: &http.Client{}}
}

// watchdog closes a stream body when the peer goes silent too long.
// Reset after every received frame; expired reports whether the
// teardown it forced was a heartbeat timeout (vs a normal Close).
type watchdog struct {
	timer    *time.Timer
	timedOut atomic.Bool
}

// newWatchdog arms a watchdog over body, or returns nil for d <= 0.
func newWatchdog(d time.Duration, body io.Closer) *watchdog {
	if d <= 0 {
		return nil
	}
	wd := &watchdog{}
	wd.timer = time.AfterFunc(d, func() {
		wd.timedOut.Store(true)
		body.Close()
	})
	return wd
}

func (wd *watchdog) reset(d time.Duration) {
	if wd != nil {
		wd.timer.Reset(d)
	}
}

func (wd *watchdog) stop() {
	if wd != nil {
		wd.timer.Stop()
	}
}

// expired translates a read error into errHeartbeatTimeout when the
// watchdog caused it.
func (wd *watchdog) expired() bool {
	return wd != nil && wd.timedOut.Load()
}

// Items fetches the server's inventory: registry ID to defined kinds.
func (c *Client) Items(ctx context.Context) (map[string][]string, error) {
	var out map[string][]string
	if err := c.getJSON(ctx, "/items", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the server's core stats snapshot.
func (c *Client) Stats(ctx context.Context) (core.Snapshot, error) {
	var out core.Snapshot
	err := c.getJSON(ctx, "/stats", &out)
	return out, err
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
