package session

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Session is one live simulation run fanning its state stream out
// through a Hub. The run executes on its own goroutine via
// core.RunObservedContext with the session as its core.Sink; pacing
// and the pause gate live inside the sample handler, so they slow the
// simulation itself — the stream is never a lossy window onto a run
// that raced ahead.
type Session struct {
	// ID is the session's wire identifier (sess-N).
	ID string

	cfg    core.Config
	alg    core.Algorithm
	setups []core.TaskSetup

	every     sim.Time
	minGap    time.Duration
	heartbeat time.Duration
	buffer    int

	hub    Hub
	ctx    context.Context
	cancel context.CancelFunc
	nowMS  func() int64
	done   chan struct{}

	mu         sync.Mutex
	state      string
	errMsg     string
	algName    string
	createdMS  int64
	finishedMS int64
	// gate is non-nil while paused; Resume closes it to release the
	// simulation goroutine blocked in Emit.
	gate chan struct{}
	// seq numbers the stream's frames; last is the latest published
	// state, nil before the first sample. Both change only on the
	// simulation goroutine, under mu.
	seq  uint64
	last *api.SessionState

	// nextSample is the pacing deadline; touched only on the simulation
	// goroutine.
	nextSample time.Time
}

// run executes the simulation to completion, then closes the stream on
// its terminal frame: the last published state (empty when the run
// ended before its first sample) stamped with the terminal session view.
func (s *Session) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(s.done)
	_, err := core.RunObservedContext(s.ctx, s.cfg, s.alg, s.setups, s)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.state = api.SessionDone
	case s.ctx.Err() != nil:
		s.state = api.SessionStopped
	default:
		s.state = api.SessionFailed
		s.errMsg = err.Error()
	}
	s.finishedMS = s.nowMS()
	s.seq++
	stamp := s.stampLocked()
	snap := s.last
	if snap == nil {
		snap = &api.SessionState{}
	}
	s.hub.Close(api.Event{Type: api.EventSnapshot, Seq: s.seq, Session: &stamp, Snapshot: snap})
}

// SampleEvery implements core.Sink: the session's sampling cadence.
func (s *Session) SampleEvery() sim.Time { return s.every }

// Emit implements core.Sink. It acts on state samples only: pace,
// honor a pause, publish the sample as a diff against the previous one
// (the first as a snapshot), with the full state as the hub's resync
// point. It runs on the simulation goroutine, so blocking here blocks
// the simulation — which is exactly what pacing and pause mean.
func (s *Session) Emit(e trace.Event) {
	if e.Kind != trace.KindSample {
		return
	}
	if !e.Sample.Final {
		s.pace()
	}
	st := stateOf(e.At, e.Sample)
	s.mu.Lock()
	defer s.mu.Unlock()
	// The gate is checked under the same lock that numbers the frame,
	// so once Pause returns no further frame is published until Resume.
	for s.gate != nil && s.ctx.Err() == nil {
		gate := s.gate
		s.mu.Unlock()
		select {
		case <-gate:
		case <-s.ctx.Done():
		}
		s.mu.Lock()
	}
	if s.ctx.Err() != nil {
		return
	}
	prev := s.last
	s.seq++
	s.last = &st
	stamp := s.stampLocked()
	snap := api.Event{Type: api.EventSnapshot, Seq: s.seq, Session: &stamp, Snapshot: &st}
	frame := snap
	if prev != nil {
		d := api.DiffStates(*prev, st)
		frame = api.Event{Type: api.EventDiff, Seq: s.seq, Session: &stamp, Diff: &d}
	}
	s.hub.Publish(frame, snap)
}

// pace sleeps the simulation so samples land at most 1/minGap per
// wall-second, turning a microseconds-long run into a watchable stream.
func (s *Session) pace() {
	if s.minGap <= 0 {
		return
	}
	now := time.Now()
	if wait := s.nextSample.Sub(now); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-s.ctx.Done():
			t.Stop()
			return
		}
		s.nextSample = s.nextSample.Add(s.minGap)
		return
	}
	s.nextSample = now.Add(s.minGap)
}

// stampLocked builds the session's wire view minus the hub-owned
// counters (Subscribers, Evictions).
func (s *Session) stampLocked() api.Session {
	stamp := api.Session{
		SchemaVersion: api.SchemaVersion,
		ID:            s.ID,
		State:         s.state,
		Error:         s.errMsg,
		Algorithm:     s.algName,
		SampleMS:      int64(s.every / sim.Millisecond),
		CreatedMS:     s.createdMS,
		FinishedMS:    s.finishedMS,
		Seq:           s.seq,
	}
	if s.last != nil {
		stamp.SimMS = s.last.SimMS
	}
	return stamp
}

// Info returns the session's current wire view.
func (s *Session) Info() api.Session {
	s.mu.Lock()
	info := s.stampLocked()
	s.mu.Unlock()
	info.Subscribers = s.hub.Subscribers()
	info.Evictions = s.hub.Evictions()
	return info
}

// State returns a copy of the latest published state; ok is false
// before the first sample.
func (s *Session) State() (api.SessionState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		return api.SessionState{}, false
	}
	return s.last.Clone(), true
}

// Pause gates the simulation at its next sample. Pausing a paused
// session is a no-op; pausing a terminal one is an error.
func (s *Session) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if api.TerminalSessionState(s.state) {
		return fmt.Errorf("session: %s is %s", s.ID, s.state)
	}
	if s.gate == nil {
		s.gate = make(chan struct{})
		s.state = api.SessionPaused
	}
	return nil
}

// Resume releases a paused session. Resuming a running session is a
// no-op; resuming a terminal one is an error.
func (s *Session) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if api.TerminalSessionState(s.state) {
		return fmt.Errorf("session: %s is %s", s.ID, s.state)
	}
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
		s.state = api.SessionRunning
	}
	return nil
}

// Stop cancels the run; the simulation halts between events (releasing
// a pause gate if one is held) and the stream closes with a stopped
// stamp. Stopping a terminal session is a no-op.
func (s *Session) Stop() {
	s.cancel()
}

// Done closes once the run goroutine has exited and the hub is closed.
func (s *Session) Done() <-chan struct{} {
	return s.done
}

// Subscribe attaches a stream consumer (see Hub.Subscribe) with the
// session's configured queue capacity.
func (s *Session) Subscribe(lastEventID uint64) *Subscriber {
	return s.hub.Subscribe(lastEventID, s.buffer)
}

// Heartbeat is the effective per-subscriber heartbeat cadence.
func (s *Session) Heartbeat() time.Duration {
	return s.heartbeat
}

// stateOf converts one state sample taken at sim time at into its wire
// snapshot.
func stateOf(at sim.Time, o *trace.Sample) api.SessionState {
	st := api.SessionState{
		SimMS:   int64(at / sim.Millisecond),
		Nodes:   make([]api.SessionNode, len(o.Nodes)),
		Tasks:   make([]api.SessionTask, len(o.Tasks)),
		Metrics: api.MetricsFromRun(o.Metrics),
	}
	for i, n := range o.Nodes {
		st.Nodes[i] = api.SessionNode{Util: n.Util, Down: n.Down}
	}
	for i, t := range o.Tasks {
		st.Tasks[i] = api.SessionTask{
			Name:      t.Name,
			Stages:    t.Stages,
			Completed: t.Completed,
			Missed:    t.Missed,
			InFlight:  t.InFlight,
		}
	}
	return st
}
