package pipes

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"repro/internal/watch"
)

// Serving: one lifecycle runs a system live. Serve paces the system's
// virtual clock with the wall clock and serves its metadata over HTTP;
// Shutdown stops it gracefully, Close abruptly. The simulation and the
// live system are the same system: only the driver of the clock
// differs.

// paceEvery is how often a served system's clock catches up with the
// wall clock (one time unit is one millisecond).
const paceEvery = time.Millisecond

// Serve runs the system live and serves its metadata on ln: a pacing
// goroutine advances the virtual clock one time unit per elapsed wall
// millisecond, and an HTTP server exposes every node's registry through
// the hub's mux session endpoints (/mux, /mux/watch, /mux/stream,
// /items, /stats; see watch.Server). Serve returns at once; stop the
// system with Shutdown or Close. Do not call Run while it is served.
func (s *System) Serve(ln net.Listener) error {
	if s.hs != nil {
		return errors.New("pipes: system already served")
	}
	s.ensureEngine()
	srv := watch.NewServer(s.WatchHub(), s.env, s.registries()...)
	s.hs = &http.Server{Handler: srv.Handler()}
	s.stopPace = make(chan struct{})
	s.paced = make(chan struct{})
	go s.pace(s.stopPace, s.paced)
	go s.hs.Serve(ln)
	return nil
}

// pace advances the clock with the wall clock until stop closes.
func (s *System) pace(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	start, t0 := time.Now(), s.Now()
	tick := time.NewTicker(paceEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.eng.RunUntil(t0 + Time(time.Since(start)/time.Millisecond))
		}
	}
}

// Shutdown stops the system gracefully: the hub closes first (no more
// deliveries, so open session streams end), the HTTP server drains
// until ctx is done and then cuts what is left, the durable plane
// writes its final checkpoint, and the clock stops. It returns the
// final checkpoint's error. The checkpoint carries every live
// subscription, so the next OpenDurability re-pins them.
func (s *System) Shutdown(ctx context.Context) error {
	if s.hub != nil {
		s.hub.Close()
	}
	if s.hs != nil {
		if err := s.hs.Shutdown(ctx); err != nil {
			s.hs.Close()
		}
	}
	var err error
	if s.plane != nil {
		err = s.plane.Close()
		s.plane = nil
	}
	s.stopPacing()
	return err
}

// Close stops the system abruptly, as a crash would: the durable plane
// is abandoned first, with no final checkpoint and nothing more
// journaled, so the next OpenDurability recovers from the last
// checkpoint and the WAL; then open session streams are cut.
func (s *System) Close() {
	if s.plane != nil {
		s.plane.Abandon()
		s.plane = nil
	}
	if s.hs != nil {
		s.hs.Close()
	}
	if s.hub != nil {
		s.hub.Close()
	}
	s.stopPacing()
}

// stopPacing ends the pacing goroutine, if any, and waits for it.
func (s *System) stopPacing() {
	if s.stopPace == nil {
		return
	}
	close(s.stopPace)
	<-s.paced
	s.stopPace = nil
}
