package session

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// sessionRequest builds a small real run: a constant workload with
// enough periods to produce a stream worth folding.
func sessionRequest(periods int) api.SessionRequest {
	return api.SessionRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Task: api.TaskSpec{
			Pattern: api.Pattern{Kind: api.PatternConstant, Value: 500, Periods: periods},
		},
	}
}

func newTestManager() *Manager {
	var ms int64
	var mu sync.Mutex
	return NewManager(Config{NowMS: func() int64 {
		mu.Lock()
		defer mu.Unlock()
		ms++
		return ms
	}})
}

// TestSessionStreamConsistency is the end-to-end fold check on a real
// simulation: 50 subscribers attach at staggered points of a live
// session; every one folds its stream — first snapshot plus diffs — to
// exactly the terminal snapshot, which equals the session's own final
// state.
func TestSessionStreamConsistency(t *testing.T) {
	m := newTestManager()
	req := sessionRequest(40)
	req.MaxRateHz = 500 // pace lightly so subscribers catch the stream live
	s, err := m.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	const subs = 50
	var wg sync.WaitGroup
	finals := make([]api.SessionState, subs)
	lasts := make([]api.Event, subs)
	counts := make([]int, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * time.Millisecond)
			sub := s.Subscribe(0)
			finals[i], lasts[i], counts[i] = drain(t, sub)
			sub.Close()
		}(i)
	}
	wg.Wait()
	<-s.Done()
	want, ok := s.State()
	if !ok {
		t.Fatal("session finished without ever publishing state")
	}
	for i := 0; i < subs; i++ {
		if !finals[i].Equal(want) {
			t.Fatalf("subscriber %d folded to %+v, want %+v", i, finals[i], want)
		}
		if lasts[i].Type != api.EventSnapshot || lasts[i].Session.State != api.SessionDone {
			t.Fatalf("subscriber %d last event %+v, want terminal snapshot", i, lasts[i])
		}
		if lasts[i].Session.FinishedMS == 0 {
			t.Errorf("terminal stamp has no finished_ms")
		}
	}
	info := s.Info()
	if info.State != api.SessionDone || info.SimMS != want.SimMS || info.Seq == 0 {
		t.Errorf("terminal info inconsistent: %+v", info)
	}
	// The check is only meaningful if at least one subscriber actually
	// folded diffs rather than landing straight on the terminal frame.
	sawDiffs := false
	for i := 0; i < subs; i++ {
		if counts[i] > 2 {
			sawDiffs = true
		}
	}
	if !sawDiffs {
		t.Error("no subscriber saw a live stream; pacing too fast for the test")
	}
	// The run completed every period of the workload.
	if want.Metrics.Completed != 40 {
		t.Errorf("terminal state completed %d periods, want 40", want.Metrics.Completed)
	}
}

// TestSessionPauseResumeStop walks the lifecycle: a paused session
// stops publishing (the simulation itself is gated), resumes cleanly,
// and a stopped one goes terminal with a stopped stamp.
func TestSessionPauseResumeStop(t *testing.T) {
	m := newTestManager()
	req := sessionRequest(2000) // long enough that we control its end
	req.MaxRateHz = 200
	s, err := m.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(0)
	if _, err := sub.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(); err != nil {
		t.Fatalf("double pause: %v", err)
	}
	if got := s.Info().State; got != api.SessionPaused {
		t.Fatalf("state after pause: %s", got)
	}
	// The gate is checked under the lock that numbers frames, so not
	// one sample lands once Pause has returned.
	seq := s.Info().Seq
	time.Sleep(50 * time.Millisecond)
	if moved := s.Info().Seq - seq; moved != 0 {
		t.Fatalf("paused session published %d events", moved)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := s.Info().State; got != api.SessionRunning {
		t.Fatalf("state after resume: %s", got)
	}
	// The stream moves again.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); err != nil {
		t.Fatalf("no event after resume: %v", err)
	}
	s.Stop()
	<-s.Done()
	info := s.Info()
	if info.State != api.SessionStopped || info.FinishedMS == 0 {
		t.Fatalf("after stop: %+v", info)
	}
	// The stream drains to a terminal snapshot stamped stopped.
	var last api.Event
	for {
		ev, err := sub.Next(context.Background())
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		last = ev
	}
	if last.Type != api.EventSnapshot || last.Session.State != api.SessionStopped {
		t.Fatalf("stream ended with %+v, want stopped snapshot", last)
	}
	if err := s.Pause(); err == nil {
		t.Error("pausing a terminal session should fail")
	}
	if err := s.Resume(); err == nil {
		t.Error("resuming a terminal session should fail")
	}
}

// TestStopWhilePaused: cancellation must release the pause gate.
func TestStopWhilePaused(t *testing.T) {
	m := newTestManager()
	req := sessionRequest(2000)
	req.MaxRateHz = 200
	s, err := m.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("stopped paused session never exited")
	}
	if got := s.Info().State; got != api.SessionStopped {
		t.Fatalf("state = %s, want stopped", got)
	}
}

// TestManagerLimits pins the cap, drain, and lookup error surfaces.
func TestManagerLimits(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	req := sessionRequest(2000)
	req.MaxRateHz = 100
	s, err := m.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(req); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-cap create: %v, want ErrTooManySessions", err)
	}
	if _, err := m.Get(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("sess-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}
	st := m.Stats()
	if st.Active != 1 {
		t.Fatalf("stats: %+v, want 1 active", st)
	}
	if err := m.DrainAndStop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(req); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after drain: %v, want ErrDraining", err)
	}
	if got := s.Info().State; got != api.SessionStopped {
		t.Fatalf("drained session state = %s, want stopped", got)
	}
	st = m.Stats()
	if st.Done != 1 || st.Active != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
	// A finished session frees its slot: the cap counts live sessions.
	m2 := NewManager(Config{MaxSessions: 1})
	quick, err := m2.Create(sessionRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	<-quick.Done()
	if _, err := m2.Create(sessionRequest(4)); err != nil {
		t.Fatalf("create after previous finished: %v", err)
	}
}

// TestCreateRejectsLanes: lane-partitioned runs shard state across
// engines, so they cannot stream.
func TestCreateRejectsLanes(t *testing.T) {
	m := newTestManager()
	req := sessionRequest(4)
	req.Config = &api.Config{Lanes: 2}
	if _, err := m.Create(req); err == nil {
		t.Fatal("lane-partitioned session accepted")
	}
}

// TestCreateRejectsInvalid: validation errors surface before any
// goroutine is spawned.
func TestCreateRejectsInvalid(t *testing.T) {
	m := newTestManager()
	req := sessionRequest(4)
	req.SampleMS = -1
	if _, err := m.Create(req); err == nil {
		t.Fatal("invalid request accepted")
	}
	if len(m.List()) != 0 {
		t.Fatal("rejected request left a session behind")
	}
}
