package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// SSE event types. Every stream frame is one of these; the name travels
// on the SSE `event:` line and inside the Event envelope's "type" field.
const (
	EventJob       = "job"
	EventSnapshot  = "snapshot"
	EventDiff      = "diff"
	EventHeartbeat = "heartbeat"
)

// Event is the typed envelope shared by every SSE stream: job
// progress frames on /v1/jobs/{id}/events and session frames on
// /v1/sessions/{id}/stream. Exactly one payload field matching Type is
// set (heartbeats carry none). Seq is the per-stream sequence number —
// the SSE id — that Last-Event-ID resume is keyed on; heartbeats do not
// advance it.
type Event struct {
	Type string `json:"type"`
	Seq  uint64 `json:"seq,omitempty"`
	// Session, on snapshot and diff frames, stamps the session's state
	// as of the frame — how a stream announces it has gone terminal.
	Session  *Session      `json:"session,omitempty"`
	Snapshot *SessionState `json:"snapshot,omitempty"`
	Diff     *SessionDiff  `json:"diff,omitempty"`
	Job      *Job          `json:"job,omitempty"`
}

// Terminal reports whether the frame carries its stream's terminal
// state: a job frame of a finished job, or a session frame stamped with
// a terminal session state. Every stream ends on such a frame.
func (e Event) Terminal() bool {
	switch {
	case e.Job != nil:
		return TerminalState(e.Job.State)
	case e.Session != nil:
		return TerminalSessionState(e.Session.State)
	}
	return false
}

// ErrUnknownEventType marks an SSE frame whose `event:` name this
// schema version does not know. Consumers should skip such frames — an
// older client surviving a newer server is the versioning policy's
// additive-change contract.
var ErrUnknownEventType = errors.New("api: unknown SSE event type")

// WriteSSE renders the event as one Server-Sent Events frame: its
// `event:` name, its seq as the SSE id, and the envelope as the data
// payload. Heartbeats are named but id-less, so they never disturb a
// client's Last-Event-ID.
func (e Event) WriteSSE(w io.Writer) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if e.Type == EventHeartbeat {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
	} else {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	}
	return err
}

// ParseSSE decodes one received frame from its `event:` name and
// `data:` payload. Names this schema does not know — the empty name
// included — return ErrUnknownEventType; skip those frames.
func ParseSSE(name string, data []byte) (Event, error) {
	switch name {
	case EventJob, EventSnapshot, EventDiff, EventHeartbeat:
		var e Event
		if err := json.Unmarshal(data, &e); err != nil {
			return Event{}, fmt.Errorf("api: decoding %s frame: %w", name, err)
		}
		if e.Type != name {
			return Event{}, fmt.Errorf("api: frame named %q carries envelope type %q", name, e.Type)
		}
		if name == EventJob && e.Job == nil {
			return Event{}, fmt.Errorf("api: job frame without a job payload")
		}
		return e, nil
	default:
		return Event{}, fmt.Errorf("%w: %q", ErrUnknownEventType, name)
	}
}
