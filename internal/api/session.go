package api

import (
	"errors"
	"fmt"
)

// Session states. A paused session still accepts subscribers (they wait
// on the gap); terminal states are done (pattern finished), stopped
// (DELETE), and failed.
const (
	SessionRunning = "running"
	SessionPaused  = "paused"
	SessionDone    = "done"
	SessionStopped = "stopped"
	SessionFailed  = "failed"
)

// TerminalSessionState reports whether a session state is final.
func TerminalSessionState(s string) bool {
	return s == SessionDone || s == SessionStopped || s == SessionFailed
}

// SessionRequest starts a live simulation session: POST /v1/sessions.
// The run spec fields mirror RunRequest; the session knobs shape the
// stream, not the simulation, so none of them enter the run's content
// address.
type SessionRequest struct {
	SchemaVersion int      `json:"schema_version"`
	Algorithm     string   `json:"algorithm"`
	Seed          *uint64  `json:"seed,omitempty"`
	Config        *Config  `json:"config,omitempty"`
	Task          TaskSpec `json:"task"`

	// SampleMS is the sampling cadence in sim-milliseconds: one
	// snapshot-or-diff per SampleMS of simulated time. 0 means 500.
	SampleMS int64 `json:"sample_ms,omitempty"`
	// MaxRateHz caps the wall-clock update rate (updates/sec) by pacing
	// the simulation between samples — how an 8µs sim becomes a watchable
	// live stream. 0 streams as fast as the simulation runs.
	MaxRateHz float64 `json:"max_rate_hz,omitempty"`
	// HeartbeatMS is the per-subscriber heartbeat cadence in wall
	// milliseconds: a heartbeat frame fires when a stream has been idle
	// that long (paused sessions, aggressive pacing). 0 means 10000.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// Buffer overrides the per-subscriber ring capacity, in events. A
	// subscriber that falls further behind is reset to a fresh snapshot
	// (drop-to-snapshot). 0 means the server default.
	Buffer int `json:"buffer,omitempty"`
}

// RunRequest projects the session's simulation spec — what the run
// scheduler and fingerprint vocabulary understand.
func (r SessionRequest) RunRequest() RunRequest {
	return RunRequest{
		SchemaVersion: r.SchemaVersion,
		Algorithm:     r.Algorithm,
		Seed:          r.Seed,
		Config:        r.Config,
		Task:          r.Task,
	}
}

// Validate aggregates every invalid field of the request.
func (r SessionRequest) Validate() error {
	var errs []error
	if err := r.RunRequest().Validate(); err != nil {
		errs = append(errs, err)
	}
	if r.SampleMS < 0 {
		errs = append(errs, fmt.Errorf("api: negative sample_ms %d", r.SampleMS))
	}
	if r.MaxRateHz < 0 {
		errs = append(errs, fmt.Errorf("api: negative max_rate_hz %g", r.MaxRateHz))
	}
	if r.HeartbeatMS < 0 {
		errs = append(errs, fmt.Errorf("api: negative heartbeat_ms %d", r.HeartbeatMS))
	}
	if r.Buffer < 0 {
		errs = append(errs, fmt.Errorf("api: negative buffer %d", r.Buffer))
	}
	return errors.Join(errs...)
}

// Session is the wire view of one live session: the submission
// response, GET /v1/sessions/{id}, and the stamp on snapshot/diff
// frames.
type Session struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	State         string `json:"state"`
	Error         string `json:"error,omitempty"`
	Algorithm     string `json:"algorithm"`
	// SampleMS echoes the effective sampling cadence (defaults applied).
	SampleMS  int64 `json:"sample_ms"`
	CreatedMS int64 `json:"created_ms"`
	// FinishedMS is set once the session is terminal.
	FinishedMS int64 `json:"finished_ms,omitempty"`
	// SimMS is the sim-time progress of the latest published state.
	SimMS int64 `json:"sim_ms"`
	// Seq is the latest published event sequence number.
	Seq uint64 `json:"seq"`
	// Subscribers is the current stream count.
	Subscribers int `json:"subscribers"`
	// Evictions counts drop-to-snapshot resets of slow subscribers.
	Evictions uint64 `json:"evictions,omitempty"`
}

// SessionNode is one node's state inside a session snapshot.
type SessionNode struct {
	// Util is the node's total utilization over the most recent
	// monitoring window, in [0,1].
	Util float64 `json:"util"`
	Down bool    `json:"down,omitempty"`
}

// SessionTask is one task's state inside a session snapshot.
type SessionTask struct {
	Name string `json:"name"`
	// Stages holds the replica placements per pipeline stage.
	Stages    [][]int `json:"stages"`
	Completed int     `json:"completed"`
	Missed    int     `json:"missed,omitempty"`
	InFlight  int     `json:"in_flight,omitempty"`
}

// clone deep-copies the task (the stage placements are the only
// reference field).
func (t SessionTask) clone() SessionTask {
	stages := make([][]int, len(t.Stages))
	for i, s := range t.Stages {
		stages[i] = append([]int(nil), s...)
	}
	t.Stages = stages
	return t
}

func (t SessionTask) equal(o SessionTask) bool {
	if t.Name != o.Name || t.Completed != o.Completed || t.Missed != o.Missed ||
		t.InFlight != o.InFlight || len(t.Stages) != len(o.Stages) {
		return false
	}
	for i := range t.Stages {
		if len(t.Stages[i]) != len(o.Stages[i]) {
			return false
		}
		for j := range t.Stages[i] {
			if t.Stages[i][j] != o.Stages[i][j] {
				return false
			}
		}
	}
	return true
}

// SessionState is one full state snapshot: the payload of snapshot
// frames, GET /v1/sessions/{id}/state, and the value session diffs fold
// over.
type SessionState struct {
	// SimMS is the sample's sim time in milliseconds.
	SimMS   int64         `json:"sim_ms"`
	Nodes   []SessionNode `json:"nodes"`
	Tasks   []SessionTask `json:"tasks"`
	Metrics Metrics       `json:"metrics"`
}

// Clone deep-copies the state.
func (s SessionState) Clone() SessionState {
	out := s
	out.Nodes = append([]SessionNode(nil), s.Nodes...)
	out.Tasks = make([]SessionTask, len(s.Tasks))
	for i, t := range s.Tasks {
		out.Tasks[i] = t.clone()
	}
	return out
}

// Equal reports exact equality — the invariant the stream-vs-final
// consistency checks assert. Metric floats compare exactly: both sides
// descend from the same deterministic simulation.
func (s SessionState) Equal(o SessionState) bool {
	if s.SimMS != o.SimMS || s.Metrics != o.Metrics ||
		len(s.Nodes) != len(o.Nodes) || len(s.Tasks) != len(o.Tasks) {
		return false
	}
	for i := range s.Nodes {
		if s.Nodes[i] != o.Nodes[i] {
			return false
		}
	}
	for i := range s.Tasks {
		if !s.Tasks[i].equal(o.Tasks[i]) {
			return false
		}
	}
	return true
}

// SessionNodeDelta is one changed node in a diff: the node's index plus
// its full new state (absolute values, so folding is exact).
type SessionNodeDelta struct {
	Node int `json:"node"`
	SessionNode
}

// SessionTaskDelta is one changed task in a diff, carried whole — tasks
// are few and placements small, so per-field deltas would buy bytes at
// the price of fold exactness.
type SessionTaskDelta struct {
	Task int `json:"task"`
	SessionTask
}

// SessionDiff is the delta between two consecutive snapshots: the
// payload of diff frames. Entries appear only for nodes/tasks that
// changed; Metrics is the full new counter block when any counter
// moved. Applying a diff to the state it was computed against yields
// the next state exactly (DiffStates/Apply are inverses).
type SessionDiff struct {
	SimMS   int64              `json:"sim_ms"`
	Nodes   []SessionNodeDelta `json:"nodes,omitempty"`
	Tasks   []SessionTaskDelta `json:"tasks,omitempty"`
	Metrics *Metrics           `json:"metrics,omitempty"`
}

// DiffStates computes next − prev. The result references next's task
// payloads via clones, so the caller may keep mutating its buffers.
func DiffStates(prev, next SessionState) SessionDiff {
	d := SessionDiff{SimMS: next.SimMS}
	for i, n := range next.Nodes {
		if i >= len(prev.Nodes) || prev.Nodes[i] != n {
			d.Nodes = append(d.Nodes, SessionNodeDelta{Node: i, SessionNode: n})
		}
	}
	for i, t := range next.Tasks {
		if i >= len(prev.Tasks) || !prev.Tasks[i].equal(t) {
			d.Tasks = append(d.Tasks, SessionTaskDelta{Task: i, SessionTask: t.clone()})
		}
	}
	if prev.Metrics != next.Metrics {
		m := next.Metrics
		d.Metrics = &m
	}
	return d
}

// Apply folds one diff into the state in place — the client-side half
// of the diff protocol.
func (s *SessionState) Apply(d SessionDiff) {
	s.SimMS = d.SimMS
	for _, nd := range d.Nodes {
		for nd.Node >= len(s.Nodes) {
			s.Nodes = append(s.Nodes, SessionNode{})
		}
		s.Nodes[nd.Node] = nd.SessionNode
	}
	for _, td := range d.Tasks {
		for td.Task >= len(s.Tasks) {
			s.Tasks = append(s.Tasks, SessionTask{})
		}
		s.Tasks[td.Task] = td.SessionTask.clone()
	}
	if d.Metrics != nil {
		s.Metrics = *d.Metrics
	}
}

// SessionStats counts sessions by state for GET /v1/stats.
type SessionStats struct {
	Active int `json:"active"`
	Paused int `json:"paused"`
	Done   int `json:"done"`
	// Subscribers is the total live stream count across sessions.
	Subscribers int `json:"subscribers"`
	// Evictions counts drop-to-snapshot resets across all sessions.
	Evictions uint64 `json:"evictions,omitempty"`
}

// JobPage is the response of GET /v1/jobs[?limit=N][&after=ID]: jobs in
// submission order starting after the `after` cursor, every one of them
// when no limit is given. NextAfter carries the cursor for the
// following page, empty when this page reaches the end.
type JobPage struct {
	SchemaVersion int    `json:"schema_version"`
	Jobs          []Job  `json:"jobs"`
	NextAfter     string `json:"next_after,omitempty"`
}
