package client

import (
	"context"
	"net/http"

	"repro/internal/api"
)

// CreateSession starts a live simulation session and returns its wire
// view.
func (c *Client) CreateSession(ctx context.Context, req api.SessionRequest) (api.Session, error) {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = api.SchemaVersion
	}
	var s api.Session
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &s)
	return s, err
}

// Session fetches one session's current wire view.
func (c *Client) Session(ctx context.Context, id string) (api.Session, error) {
	var s api.Session
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &s)
	return s, err
}

// Sessions lists every session the daemon knows, in creation order.
func (c *Client) Sessions(ctx context.Context) ([]api.Session, error) {
	var out []api.Session
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out)
	return out, err
}

// SessionState fetches the session's latest published snapshot — the
// polling alternative to StreamSession.
func (c *Client) SessionState(ctx context.Context, id string) (api.SessionState, error) {
	var st api.SessionState
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/state", nil, &st)
	return st, err
}

// PauseSession gates the session's simulation at its next sample.
func (c *Client) PauseSession(ctx context.Context, id string) (api.Session, error) {
	var s api.Session
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/pause", nil, &s)
	return s, err
}

// ResumeSession releases a paused session.
func (c *Client) ResumeSession(ctx context.Context, id string) (api.Session, error) {
	var s api.Session
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/resume", nil, &s)
	return s, err
}

// StopSession stops a live session and returns its terminal view.
func (c *Client) StopSession(ctx context.Context, id string) (api.Session, error) {
	var s api.Session
	err := c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, &s)
	return s, err
}

// StreamSession subscribes to the session's snapshot/diff stream and
// folds it client-side: snapshots replace the tracked state, diffs
// apply to it. fn, when set, sees every decoded frame (heartbeats
// included) before it is folded. A dropped stream reconnects and
// resumes (see follow) — the server replays the missed tail when it
// can and falls back to a fresh snapshot when it can't, so the fold
// stays exact across reconnects. Returns the folded state and the
// terminal session stamp once the session ends.
func (c *Client) StreamSession(ctx context.Context, id string, fn func(api.Event)) (api.SessionState, api.Session, error) {
	var st api.SessionState
	var sess api.Session
	err := c.follow(ctx, "/v1/sessions/"+id+"/stream", func(ev api.Event) {
		if fn != nil {
			fn(ev)
		}
		switch ev.Type {
		case api.EventSnapshot:
			st = ev.Snapshot.Clone()
		case api.EventDiff:
			st.Apply(*ev.Diff)
		}
		if ev.Session != nil {
			sess = *ev.Session
		}
	})
	return st, sess, err
}
