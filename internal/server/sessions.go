package server

import (
	"errors"
	"net/http"

	"repro/internal/api"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// handleCreateSession starts a live simulation session. Unlike job
// submission there is no queue: a session occupies its own goroutine
// for its whole (possibly paced, possibly long) life, so the live cap
// is the backpressure and over-cap creation is rejected outright.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req api.SessionRequest
	if !decodeRequest(w, r, "session request", &req) {
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining; not accepting new sessions")
		s.counter("rmserved_rejected_total", telemetry.Label{Key: "reason", Value: "draining"})
		return
	}
	sess, err := s.sessions.Create(req)
	switch {
	case err == nil:
	case errors.Is(err, session.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "%v", err)
		return
	case errors.Is(err, session.ErrTooManySessions):
		writeError(w, http.StatusTooManyRequests, api.CodeQueueFull, "%v", err)
		s.counter("rmserved_rejected_total", telemetry.Label{Key: "reason", Value: "session_cap"})
		return
	default:
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	s.counter("rmserved_sessions_started_total")
	s.log.Info("session started", "session", sess.ID)
	writeJSON(w, http.StatusCreated, sess.Info())
}

// lookupSession fetches a session by path id, writing the 404 envelope
// on miss.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *session.Session {
	id := r.PathValue("id")
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown session %q", id)
		return nil
	}
	return sess
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.sessions.List()
	out := make([]api.Session, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.Info())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookupSession(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.Info())
	}
}

// handleSessionState serves the latest published snapshot — the
// poll-based alternative to the stream for dashboards that only want
// "now".
func (s *Server) handleSessionState(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	st, ok := sess.State()
	if !ok {
		writeError(w, http.StatusConflict, api.CodeConflict, "session %s has not published state yet", sess.ID)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handlePauseSession(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	if err := sess.Pause(); err != nil {
		writeError(w, http.StatusConflict, api.CodeConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleResumeSession(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	if err := sess.Resume(); err != nil {
		writeError(w, http.StatusConflict, api.CodeConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// handleStopSession mirrors job cancellation: stopping a terminal
// session conflicts, stopping a live one waits for the terminal
// transition so the response carries the final state.
func (s *Server) handleStopSession(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	if api.TerminalSessionState(sess.Info().State) {
		writeError(w, http.StatusConflict, api.CodeConflict, "session %s already %s", sess.ID, sess.Info().State)
		return
	}
	s.log.Info("session stop requested", "session", sess.ID)
	sess.Stop()
	select {
	case <-sess.Done():
	case <-r.Context().Done():
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// handleSessionStream serves GET /v1/sessions/{id}/stream: the
// session's snapshot/diff frames (see serveSSE), with heartbeats at the
// session's cadence.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookupSession(w, r); sess != nil {
		s.serveSSE(w, r, sess.Subscribe, sess.Heartbeat())
	}
}
