package watch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MuxWatch names one desired watch in a mux session: the item plus the
// initial resume point.
type MuxWatch struct {
	Registry string
	Kind     string
	Since    uint64
}

// MuxSession is one live mux transport session: a single streaming
// connection carrying every added watch, plus the control endpoint for
// dynamic add/remove. It is the raw transport — ReconnectMux wraps it
// with redial-and-resume.
type MuxSession struct {
	c    *Client
	id   string
	body io.ReadCloser
	br   *bufio.Reader
	wd   *watchdog
	hbt  time.Duration

	pending []MuxEvent
	frames  atomic.Int64
	events  atomic.Int64
}

// Mux creates a session on the server and attaches its stream. Cancel
// ctx to end the session.
func (c *Client) Mux(ctx context.Context) (*MuxSession, error) {
	return c.mux(ctx, c.HeartbeatTimeout)
}

func (c *Client) mux(ctx context.Context, hbt time.Duration) (*MuxSession, error) {
	var created struct {
		Session string `json:"session"`
	}
	if err := c.postJSON(ctx, "/mux", nil, &created); err != nil {
		return nil, err
	}
	if created.Session == "" {
		return nil, fmt.Errorf("watch: mux create returned no session id")
	}
	u := fmt.Sprintf("%s/mux/stream?session=%s", c.base, url.QueryEscape(created.Session))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, &statusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
	}
	return &MuxSession{
		c:    c,
		id:   created.Session,
		body: resp.Body,
		br:   bufio.NewReaderSize(resp.Body, 64<<10),
		wd:   newWatchdog(hbt, resp.Body),
		hbt:  hbt,
	}, nil
}

// Add registers watches under caller-chosen ids in one control round
// trip. The returned map carries per-id registration errors (absent
// ids succeeded); err is a transport- or session-level failure — a
// *statusError with code 410 means the session is gone and the caller
// must redial.
func (m *MuxSession) Add(ctx context.Context, adds map[uint64]MuxWatch) (map[uint64]string, error) {
	ctl := muxControl{}
	ids := make([]uint64, 0, len(adds))
	for id := range adds {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := adds[id]
		ctl.Add = append(ctl.Add, muxAdd{ID: id, Registry: w.Registry, Kind: w.Kind, Since: w.Since})
	}
	return m.control(ctx, ctl)
}

func (m *MuxSession) control(ctx context.Context, ctl muxControl) (map[uint64]string, error) {
	var res muxControlResult
	path := fmt.Sprintf("/mux/watch?session=%s", url.QueryEscape(m.id))
	if err := m.c.postJSON(ctx, path, ctl, &res); err != nil {
		return nil, err
	}
	return res.Errors, nil
}

// Next blocks for the next event, consuming heartbeat frames
// internally (they feed the watchdog, not the caller). It returns
// io.EOF on clean stream end and errHeartbeatTimeout when the peer
// goes silent past the deadline.
func (m *MuxSession) Next() (MuxEvent, error) {
	for {
		if len(m.pending) > 0 {
			ev := m.pending[0]
			m.pending = m.pending[1:]
			return ev, nil
		}
		evs, heartbeat, err := readMuxFrame(m.br)
		if err != nil {
			if m.wd.expired() {
				return MuxEvent{}, errHeartbeatTimeout
			}
			return MuxEvent{}, err
		}
		m.wd.reset(m.hbt)
		if heartbeat {
			continue
		}
		m.frames.Add(1)
		m.events.Add(int64(len(evs)))
		m.pending = evs
	}
}

// Frames and Events report how many event frames and events this
// session has received — Events()/Frames() is the measured batching
// factor (events per write; the benchmark's watch.events_per_frame).
func (m *MuxSession) Frames() int64 { return m.frames.Load() }

// Events reports total events received; see Frames.
func (m *MuxSession) Events() int64 { return m.events.Load() }

// Close ends the session; the server destroys it on stream teardown.
func (m *MuxSession) Close() error {
	m.wd.stop()
	return m.body.Close()
}

// postJSON POSTs body (nil for empty) and decodes the JSON reply.
func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &statusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(b))}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ReconnectMux is a mux session that survives server restarts: it
// tracks the desired watch set and each watch's highest delivered
// version, and on any transport failure redials, re-creates the
// session, and re-adds every watch with since set to its LastSeen —
// so a reconnect costs at most one Snapshot-flagged event per behind
// watch instead of a full replay or a re-subscribe storm. This is the
// upstream leg of a Relay and of mdtop's mux -connect mode.
type ReconnectMux struct {
	c   *Client
	ctx context.Context
	opt ReconnectOptions

	// OnResume, when set, runs after every successful (re)attach with
	// the number of watches re-added — the hook behind the relay's
	// resume banner and RelayResumes counter. The first attach counts.
	OnResume func(watches int)
	// OnReject, when set, runs when the server permanently rejects a
	// watch id (unknown registry/kind); the watch leaves the desired
	// set and will not be retried.
	OnReject func(id uint64, msg string)

	mu       sync.Mutex
	watches  map[uint64]MuxWatch
	lastSeen map[uint64]uint64

	sess     *MuxSession
	delay    time.Duration
	attempts int
}

// MuxReconnect creates an empty self-healing mux session. Connection
// is lazy: the first Next dials. Add/Remove may be called from a
// different goroutine than Next.
func (c *Client) MuxReconnect(ctx context.Context, opt ReconnectOptions) *ReconnectMux {
	return &ReconnectMux{
		c:        c,
		ctx:      ctx,
		opt:      opt.withDefaults(),
		watches:  make(map[uint64]MuxWatch),
		lastSeen: make(map[uint64]uint64),
	}
}

// Add puts (registry, kind, since) into the desired watch set under
// id. When connected it registers immediately; a per-id rejection is
// returned (and the id dropped); transport failures are absorbed — the
// watch registers on the next (re)dial.
func (m *ReconnectMux) Add(id uint64, w MuxWatch) error {
	m.mu.Lock()
	if _, dup := m.watches[id]; dup {
		m.mu.Unlock()
		return fmt.Errorf("watch: duplicate watch id %d", id)
	}
	m.watches[id] = w
	sess := m.sess
	m.mu.Unlock()
	if sess == nil {
		return nil
	}
	rejects, err := sess.Add(m.ctx, map[uint64]MuxWatch{id: w})
	if err != nil {
		// Transport/session failure: Next's redial re-adds the watch.
		return nil
	}
	if msg, bad := rejects[id]; bad {
		m.drop(id, msg)
		return fmt.Errorf("watch: %s", msg)
	}
	return nil
}

// drop removes a permanently rejected id and fires OnReject.
func (m *ReconnectMux) drop(id uint64, msg string) {
	m.mu.Lock()
	delete(m.watches, id)
	delete(m.lastSeen, id)
	m.mu.Unlock()
	if m.OnReject != nil {
		m.OnReject(id, msg)
	}
}

// Session exposes the live underlying session (nil before the first
// dial and between redials) for its Frames/Events counters.
func (m *ReconnectMux) Session() *MuxSession {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sess
}

// connect dials a fresh session and re-adds the whole desired set,
// each watch resuming after max(its initial Since, its LastSeen).
func (m *ReconnectMux) connect() error {
	sess, err := m.c.mux(m.ctx, m.heartbeatTimeout())
	if err != nil {
		return err
	}
	m.mu.Lock()
	adds := make(map[uint64]MuxWatch, len(m.watches))
	for id, w := range m.watches {
		if seen := m.lastSeen[id]; seen > w.Since {
			w.Since = seen
		}
		adds[id] = w
	}
	m.mu.Unlock()
	var rejects map[uint64]string
	if len(adds) > 0 {
		rejects, err = sess.Add(m.ctx, adds)
		if err != nil {
			sess.Close()
			return err
		}
	}
	for id, msg := range rejects {
		m.drop(id, msg)
	}
	m.mu.Lock()
	m.sess = sess
	n := len(m.watches)
	m.mu.Unlock()
	if m.OnResume != nil {
		m.OnResume(n)
	}
	return nil
}

func (m *ReconnectMux) heartbeatTimeout() time.Duration {
	if m.opt.HeartbeatTimeout > 0 {
		return m.opt.HeartbeatTimeout
	}
	return m.c.HeartbeatTimeout
}

// Next blocks for the next event, transparently redialing with resume
// across dropped connections, heartbeat timeouts, and server-side
// session loss (410 Gone). It returns the context's error on
// cancellation and the last error once MaxAttempts consecutive
// failures accumulate.
func (m *ReconnectMux) Next() (MuxEvent, error) {
	for {
		if err := m.ctx.Err(); err != nil {
			return MuxEvent{}, err
		}
		m.mu.Lock()
		sess := m.sess
		m.mu.Unlock()
		if sess == nil {
			if err := m.connect(); err != nil {
				if err2 := m.backoff(err); err2 != nil {
					return MuxEvent{}, err2
				}
			}
			continue
		}
		ev, err := sess.Next()
		if err != nil {
			sess.Close()
			m.mu.Lock()
			m.sess = nil
			m.mu.Unlock()
			if cerr := m.ctx.Err(); cerr != nil {
				return MuxEvent{}, cerr
			}
			if err2 := m.backoff(err); err2 != nil {
				return MuxEvent{}, err2
			}
			continue
		}
		m.delay, m.attempts = 0, 0
		m.mu.Lock()
		_, wanted := m.watches[ev.ID]
		if wanted && ev.Version > m.lastSeen[ev.ID] {
			m.lastSeen[ev.ID] = ev.Version
		}
		m.mu.Unlock()
		if !wanted {
			continue // event raced a Remove; drop it
		}
		return ev, nil
	}
}

// backoff sleeps the next jittered exponential delay. It returns a
// non-nil error — cause, or the context's error — when the retry budget
// or the context is exhausted, ending the session.
func (m *ReconnectMux) backoff(cause error) error {
	m.attempts++
	if m.opt.MaxAttempts > 0 && m.attempts >= m.opt.MaxAttempts {
		return cause
	}
	if m.delay == 0 {
		m.delay = m.opt.InitialBackoff
	} else if m.delay *= 2; m.delay > m.opt.MaxBackoff {
		m.delay = m.opt.MaxBackoff
	}
	return m.opt.sleep(m.ctx, m.opt.jitter(m.delay))
}

// Close tears down the live session, if any. Further Next calls redial
// unless the context is canceled, so cancel the context to stop for
// good.
func (m *ReconnectMux) Close() error {
	m.mu.Lock()
	sess := m.sess
	m.sess = nil
	m.mu.Unlock()
	if sess == nil {
		return nil
	}
	return sess.Close()
}
