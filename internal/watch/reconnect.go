package watch

import (
	"context"
	"math/rand"
	"net/http"
	"time"
)

// ReconnectOptions tunes ReconnectMux's retry loop. The zero value
// retries forever with 50ms initial backoff doubling to 2s, each delay
// jittered uniformly over [d/2, d] to decorrelate a fleet of clients
// reconnecting after the same server restart.
type ReconnectOptions struct {
	// InitialBackoff is the first retry delay (default 50ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// MaxAttempts bounds consecutive failures before Next gives up and
	// returns the last error; 0 retries until the context is canceled.
	MaxAttempts int
	// HeartbeatTimeout arms the per-session silent-peer watchdog (see
	// Client.HeartbeatTimeout); 0 falls back to the client's setting.
	// A tripped watchdog surfaces as errHeartbeatTimeout internally and
	// is retried like any dropped connection.
	HeartbeatTimeout time.Duration

	// Test hooks: nil selects time-based sleep and math/rand jitter.
	sleep  func(context.Context, time.Duration) error
	jitter func(time.Duration) time.Duration
}

// statusError reports a request the server answered with a non-200
// status; on a session's control endpoint, 410 Gone means the session
// died with its stream and the client must redial.
type statusError struct {
	Code int
	Body string
}

func (e *statusError) Error() string {
	return "watch: " + http.StatusText(e.Code) + ": " + e.Body
}

// withDefaults fills the zero-value policy: 50ms initial backoff
// doubling to 2s, time-based sleep, uniform [d/2, d] jitter.
func (opt ReconnectOptions) withDefaults() ReconnectOptions {
	if opt.InitialBackoff <= 0 {
		opt.InitialBackoff = 50 * time.Millisecond
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 2 * time.Second
	}
	if opt.sleep == nil {
		opt.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if opt.jitter == nil {
		opt.jitter = func(d time.Duration) time.Duration {
			return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		}
	}
	return opt
}
