package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/watch"
)

// syncBuf makes the output buffer safe for the mux reconnector's
// OnResume callback, which writes from its own goroutine.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// connectServer starts an in-process watch server over one triggered
// item ("n1/val") plus its static source, with steady publications so
// delta frames keep arriving. Cleanup is registered on t.
func connectServer(t *testing.T) *httptest.Server {
	t.Helper()
	env := core.NewEnv(clock.NewVirtual())
	r := env.NewRegistry("n1")
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

	h := watch.NewHub(env)
	t.Cleanup(h.Close)
	srv := httptest.NewServer(watch.NewServer(h, env, r).Handler())
	t.Cleanup(srv.Close)

	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			n.Add(1)
			r.NotifyChanged("src")
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return srv
}

// TestConnectEndToEnd points runConnect's mux session at an
// in-process watch server and checks the printed frames and stat
// lines.
func TestConnectEndToEnd(t *testing.T) {
	srv := connectServer(t)

	var buf syncBuf
	if err := runConnect(srv.URL, "n1/val", 3, 0, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"watching 1 item(s)",
		"via mux",
		"mdtop: mux session attached (1 watches over 1 connection)",
		"S ", // snapshot-tagged first frame
		"n1/val",
		"watch hub: watchers=",
		"catchUps=",
		"mux: sessions=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 7 {
		t.Fatalf("output has %d lines, want >= 7 (banner + header + 3 frames + stats):\n%s", lines, out)
	}

	// Item discovery: empty -item watches every advertised pair over
	// the one session.
	buf = syncBuf{}
	if err := runConnect(srv.URL, "", 1, 0, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "watching 2 item(s)") {
		t.Fatalf("discovery output = %q, want watching 2 item(s)", buf.String())
	}
}
