package watch

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
)

// defaultHeartbeat is the interval between 'H' frames on an otherwise
// idle session stream. Clients use their absence to detect a silently
// dead peer.
const defaultHeartbeat = 15 * time.Second

// muxSessionTTL bounds how long a created-but-unclaimed mux session
// may wait for its stream before the next create sweeps it.
const muxSessionTTL = time.Minute

// maxMuxBatch caps the events packed into one mux frame; a burst
// larger than this simply spans frames, all written before one flush.
const maxMuxBatch = 1024

// maxControlBody bounds one POST /mux/watch body, so a peer cannot make
// the server buffer an unbounded request. A muxAdd with a 20-digit id
// and since is 81 bytes of JSON with its separating comma, plus its
// registry and kind names, so 64 MiB holds 462,819 adds with 32-byte
// names: a relay re-adding its whole inventory after a redial stays well
// inside it.
const maxControlBody = 64 << 20

// Server exposes a watch Source over HTTP — the stdlib-only wire
// surface behind cmd/mdserve, serving either a primary hub (hubView)
// or a Relay. The mux session is the only watch transport; watching
// one item is a session holding one watch. Endpoints:
//
//	POST /mux
//	    Create a mux session; returns {"session": id}. The session
//	    holds any number of watches over one downstream connection.
//	POST /mux/watch?session=ID
//	    Batched control: {"add": [{id, registry, kind, since}...],
//	    "remove": [id...]}. A watch added behind its item (since below
//	    the current version) starts with one snapshot event, then
//	    deltas. Per-id failures come back in "errors"; unknown sessions
//	    answer 410 Gone (redial signal), bodies over maxControlBody 413.
//	GET /mux/stream?session=ID
//	    The session's single downstream: CRC-framed binary batches
//	    ('E' frames carrying many events, 'H' heartbeats). Closing the
//	    stream destroys the session.
//	GET /items
//	    JSON inventory: each registry with its defined item kinds.
//	GET /stats
//	    JSON core.Snapshot of the source's self-metrics.
type Server struct {
	src       Source
	heartbeat time.Duration

	mu       sync.Mutex
	sessions map[string]*muxSessionState
}

// muxSessionState is one server-side mux session between creation and
// stream teardown.
type muxSessionState struct {
	id      string
	sess    *Session
	created time.Time
	claimed bool
}

// NewServer creates a server over hub exposing the given registries by
// their IDs — the primary-server constructor.
func NewServer(hub *Hub, env *core.Env, regs ...*core.Registry) *Server {
	return NewSourceServer(NewHubView(hub, env, regs...))
}

// NewSourceServer creates a server over any Source (a hubView or a
// Relay re-serving an upstream).
func NewSourceServer(src Source) *Server {
	return &Server{src: src, heartbeat: defaultHeartbeat, sessions: make(map[string]*muxSessionState)}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/mux", s.handleMuxCreate)
	mux.HandleFunc("/mux/watch", s.handleMuxControl)
	mux.HandleFunc("/mux/stream", s.handleMuxStream)
	mux.HandleFunc("/items", s.handleItems)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// handleMuxCreate allocates a session and sweeps stale unclaimed ones.
func (s *Server) handleMuxCreate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var idb [16]byte
	if _, err := rand.Read(idb[:]); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	id := hex.EncodeToString(idb[:])
	st := &muxSessionState{id: id, sess: NewSession(s.src), created: time.Now()}

	stats := s.src.SourceStats()
	var stale []*muxSessionState
	s.mu.Lock()
	for sid, old := range s.sessions {
		if !old.claimed && time.Since(old.created) > muxSessionTTL {
			delete(s.sessions, sid)
			stale = append(stale, old)
		}
	}
	s.sessions[id] = st
	s.mu.Unlock()
	for _, old := range stale {
		old.sess.Close()
		stats.MuxSessions.Add(-1)
	}
	stats.MuxSessions.Add(1)
	writeJSON(w, map[string]string{"session": id})
}

// lookupSession resolves the session query parameter; a miss has
// already answered the request (410 Gone — the client's session died
// with its stream, redial from scratch).
func (s *Server) lookupSession(w http.ResponseWriter, req *http.Request) *muxSessionState {
	id := req.URL.Query().Get("session")
	s.mu.Lock()
	st := s.sessions[id]
	s.mu.Unlock()
	if st == nil {
		http.Error(w, "unknown session", http.StatusGone)
		return nil
	}
	return st
}

// handleMuxControl applies one batched add/remove request to a
// session. Registration errors are per-id, not request-fatal: a
// relay re-adding 10k watches should not lose 9999 good ones to one
// deleted item.
func (s *Server) handleMuxControl(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	st := s.lookupSession(w, req)
	if st == nil {
		return
	}
	var ctl muxControl
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxControlBody)).Decode(&ctl); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad control body: "+err.Error(), code)
		return
	}
	res := muxControlResult{}
	for _, a := range ctl.Add {
		err := st.sess.Add(a.ID, a.Registry, a.Kind, Options{Since: a.Since})
		if err != nil {
			if res.Errors == nil {
				res.Errors = make(map[uint64]string)
			}
			res.Errors[a.ID] = err.Error()
		}
	}
	for _, id := range ctl.Remove {
		st.sess.Remove(id)
	}
	writeJSON(w, res)
}

// handleMuxStream attaches the session's one downstream connection and
// pumps batched binary frames until the client goes away; teardown
// destroys the session.
func (s *Server) handleMuxStream(w http.ResponseWriter, req *http.Request) {
	st := s.lookupSession(w, req)
	if st == nil {
		return
	}
	s.mu.Lock()
	if st.claimed {
		s.mu.Unlock()
		http.Error(w, "stream already attached", http.StatusConflict)
		return
	}
	st.claimed = true
	s.mu.Unlock()

	stats := s.src.SourceStats()
	defer func() {
		s.mu.Lock()
		delete(s.sessions, st.id)
		s.mu.Unlock()
		st.sess.Close()
		stats.MuxSessions.Add(-1)
	}()

	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	ctx := req.Context()
	var buf []byte
	evs := make([]MuxEvent, 0, maxMuxBatch)
	for {
		// Pack everything pending into full frames, then flush once: a
		// 10k-event burst amortizes to maxMuxBatch events per write and
		// a single flush.
		for {
			evs = evs[:0]
			for len(evs) < maxMuxBatch {
				se, ok := st.sess.Poll()
				if !ok {
					break
				}
				evs = append(evs, muxEventOf(se.ID, se.Event))
			}
			if len(evs) == 0 {
				break
			}
			buf = AppendMuxEvents(buf[:0], evs)
			if _, err := w.Write(buf); err != nil {
				return
			}
			stats.MuxFrames.Add(1)
			stats.MuxEvents.Add(int64(len(evs)))
		}
		fl.Flush()
		select {
		case <-st.sess.Signal():
		case <-hb.C:
			buf = appendMuxHeartbeat(buf[:0])
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
			stats.MuxHeartbeats.Add(1)
		case <-st.sess.Done():
			return
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleItems(w http.ResponseWriter, _ *http.Request) {
	items, err := s.src.ListItems()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if items == nil {
		items = map[string][]string{}
	}
	writeJSON(w, items)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.src.SourceStats().Snapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
