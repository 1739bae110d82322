package session

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/api"
)

// mkState builds a deterministic state for step i so tests can assert
// exact fold results.
func mkState(i int) api.SessionState {
	return api.SessionState{
		SimMS: int64(i) * 500,
		Nodes: []api.SessionNode{
			{Util: float64(i%7) / 10},
			{Util: 0.5, Down: i%2 == 0},
		},
		Tasks: []api.SessionTask{
			{Name: "t", Stages: [][]int{{i % 3}, {1, i % 5}}, Completed: i},
		},
		Metrics: api.Metrics{Periods: i, Completed: i},
	}
}

// fold applies one stream event to a client-side state: snapshots
// replace, diffs apply.
func fold(st *api.SessionState, ev api.Event) {
	switch ev.Type {
	case api.EventSnapshot:
		*st = ev.Snapshot.Clone()
	case api.EventDiff:
		st.Apply(*ev.Diff)
	}
}

// drain folds the subscriber's whole stream and returns the final
// state, the last event seen, and how many events arrived.
func drain(t *testing.T, sub *Subscriber) (api.SessionState, api.Event, int) {
	t.Helper()
	var st api.SessionState
	var last api.Event
	n := 0
	for {
		ev, err := sub.Next(context.Background())
		if errors.Is(err, ErrClosed) {
			return st, last, n
		}
		if err != nil {
			// Errorf, not Fatalf: drain runs on subscriber goroutines.
			t.Errorf("Next: %v", err)
			return st, last, n
		}
		fold(&st, ev)
		last = ev
		n++
	}
}

// feed publishes session states into a hub the way a Session does:
// frames numbered from 1, the first a snapshot and every later one a
// diff, each with the full state as the resync point.
type feed struct {
	h    *Hub
	seq  uint64
	last *api.SessionState
}

func (f *feed) publish(st api.SessionState) {
	f.seq++
	stamp := api.Session{ID: "sess-1", State: api.SessionRunning, Seq: f.seq, SimMS: st.SimMS}
	snap := api.Event{Type: api.EventSnapshot, Seq: f.seq, Session: &stamp, Snapshot: &st}
	frame := snap
	if f.last != nil {
		d := api.DiffStates(*f.last, st)
		frame = api.Event{Type: api.EventDiff, Seq: f.seq, Session: &stamp, Diff: &d}
	}
	f.last = &st
	f.h.Publish(frame, snap)
}

// close ends the stream on a terminal snapshot of the last state (an
// empty one when nothing was published).
func (f *feed) close(state string) {
	f.seq++
	snap := f.last
	if snap == nil {
		snap = &api.SessionState{}
	}
	stamp := api.Session{ID: "sess-1", State: state, Seq: f.seq, SimMS: snap.SimMS}
	f.h.Close(api.Event{Type: api.EventSnapshot, Seq: f.seq, Session: &stamp, Snapshot: snap})
}

// jobFeed publishes job frames the way the server does: the frame is
// its own resync point, and a terminal state closes the stream.
type jobFeed struct {
	h   *Hub
	seq uint64
}

func (f *jobFeed) publish(state string) {
	f.seq++
	ev := api.Event{Type: api.EventJob, Seq: f.seq, Job: &api.Job{ID: "job-1", State: state}}
	if api.TerminalState(state) {
		f.h.Close(ev)
	} else {
		f.h.Publish(ev, ev)
	}
}

// next reads one frame, failing the test on any error.
func next(t *testing.T, sub *Subscriber) api.Event {
	t.Helper()
	ev, err := sub.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// assertClosed checks the subscriber has nothing left but ErrClosed.
func assertClosed(t *testing.T, sub *Subscriber) {
	t.Helper()
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("after the terminal frame: %v, want ErrClosed", err)
	}
}

// TestHubFanOut1000 drives 1000 concurrent subscribers — some joining
// mid-stream — through a 200-state publish and asserts every one of
// them folds to exactly the final state. Run under -race this is also
// the hub's data-race certification.
func TestHubFanOut1000(t *testing.T) {
	const subs, steps = 1000, 200
	f := &feed{h: &Hub{}}
	var wg sync.WaitGroup
	results := make([]api.SessionState, subs)
	lasts := make([]api.Event, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Subscribers race the publisher: some attach before the
			// first event, some mid-stream, some after close. All must
			// converge on the same final state.
			sub := f.h.Subscribe(0, 512)
			results[i], lasts[i], _ = drain(t, sub)
			sub.Close()
		}(i)
	}
	for i := 1; i <= steps+1; i++ {
		f.publish(mkState(i))
	}
	f.close(api.SessionDone)
	wg.Wait()
	want := mkState(steps + 1)
	for i := 0; i < subs; i++ {
		if !results[i].Equal(want) {
			t.Fatalf("subscriber %d folded to %+v, want %+v", i, results[i], want)
		}
		if lasts[i].Type != api.EventSnapshot || lasts[i].Session.State != api.SessionDone {
			t.Fatalf("subscriber %d last event: %+v, want terminal snapshot", i, lasts[i])
		}
	}
	if f.h.Subscribers() != 0 {
		t.Errorf("%d subscribers still attached", f.h.Subscribers())
	}
}

// TestSlowConsumerEviction pins the no-blocking contract: a subscriber
// that never reads cannot stall publishing; it is evicted exactly once
// (counted), and its eventual read resyncs from a snapshot that — with
// the diffs after it — still folds to the true state.
func TestSlowConsumerEviction(t *testing.T) {
	f := &feed{h: &Hub{}}
	sub := f.h.Subscribe(0, 4)
	// Publish far past the queue with no reader: must complete (push
	// never blocks) and evict exactly once (lagged subscribers are
	// skipped, not re-evicted).
	for i := 1; i <= 10; i++ {
		f.publish(mkState(i))
	}
	if got := f.h.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// First read after eviction: a snapshot of the current state at the
	// current seq, not the missed diffs.
	ev := next(t, sub)
	if ev.Type != api.EventSnapshot || ev.Seq != 10 {
		t.Fatalf("post-eviction read = %s seq %d, want snapshot seq 10", ev.Type, ev.Seq)
	}
	st := ev.Snapshot.Clone()
	// Back in sync: later publishes arrive as diffs and fold exactly.
	for i := 11; i <= 13; i++ {
		f.publish(mkState(i))
	}
	for i := 11; i <= 13; i++ {
		ev := next(t, sub)
		if ev.Type != api.EventDiff || ev.Seq != uint64(i) {
			t.Fatalf("resynced read = %s seq %d, want diff seq %d", ev.Type, ev.Seq, i)
		}
		fold(&st, ev)
	}
	if !st.Equal(mkState(13)) {
		t.Fatalf("fold after eviction drifted:\n got %+v\nwant %+v", st, mkState(13))
	}
}

// TestResume pins Last-Event-ID semantics: a resume inside the replay
// window replays exactly the missed tail; a resume from before the
// window, or with a tail too long for the queue, falls back to a fresh
// snapshot; a resume at the head waits for the next frame.
func TestResume(t *testing.T) {
	f := &feed{h: &Hub{}}
	for i := 1; i <= replayWindow+10; i++ {
		f.publish(mkState(i))
	}
	head := uint64(replayWindow + 10)
	// The window holds seqs 11..head. Resume five frames back: replay
	// exactly those five.
	sub := f.h.Subscribe(head-5, 16)
	st := mkState(int(head - 5))
	for q := head - 4; q <= head; q++ {
		ev := next(t, sub)
		if ev.Type != api.EventDiff || ev.Seq != q {
			t.Fatalf("replayed event = %s seq %d, want diff seq %d", ev.Type, ev.Seq, q)
		}
		fold(&st, ev)
	}
	if !st.Equal(mkState(int(head))) {
		t.Fatalf("replayed fold drifted:\n got %+v\nwant %+v", st, mkState(int(head)))
	}
	sub.Close()

	// Resume from before the window, or with more missed frames than
	// the queue holds: a snapshot at the current seq.
	for _, c := range []struct {
		last   uint64
		buffer int
	}{{9, 2 * replayWindow}, {head - 17, 16}} {
		stale := f.h.Subscribe(c.last, c.buffer)
		ev := next(t, stale)
		if ev.Type != api.EventSnapshot || ev.Seq != head || !ev.Snapshot.Equal(mkState(int(head))) {
			t.Fatalf("resume from %d = %s seq %d, want the current snapshot at %d", c.last, ev.Type, ev.Seq, head)
		}
		stale.Close()
	}

	// Resume at the head: nothing to replay; the next publish arrives
	// as a plain diff.
	at := f.h.Subscribe(head, 16)
	f.publish(mkState(int(head + 1)))
	if ev := next(t, at); ev.Type != api.EventDiff || ev.Seq != head+1 {
		t.Fatalf("head resume read = %s seq %d, want diff seq %d", ev.Type, ev.Seq, head+1)
	}
}

// TestLateJoinAfterClose: subscribing to a finished stream — fresh, at
// its head, or from inside the old window — yields the terminal
// snapshot, then ErrClosed.
func TestLateJoinAfterClose(t *testing.T) {
	f := &feed{h: &Hub{}}
	f.publish(mkState(1))
	f.publish(mkState(2))
	f.close(api.SessionDone)
	for _, last := range []uint64{0, 1, 3} {
		sub := f.h.Subscribe(last, 16)
		ev := next(t, sub)
		if ev.Type != api.EventSnapshot || ev.Seq != 3 || ev.Session.State != api.SessionDone {
			t.Fatalf("join from %d got %s seq %d (session %+v), want terminal snapshot seq 3", last, ev.Type, ev.Seq, ev.Session)
		}
		if !ev.Snapshot.Equal(mkState(2)) {
			t.Errorf("terminal snapshot is not the final state")
		}
		assertClosed(t, sub)
	}
}

// TestCloseWithoutState: a stream that ends before its first sample
// still ends on a terminal frame — an empty snapshot stamped with the
// terminal state — for a subscriber attached before the close and for
// one joining after it.
func TestCloseWithoutState(t *testing.T) {
	f := &feed{h: &Hub{}}
	early := f.h.Subscribe(0, 16)
	f.close(api.SessionFailed)
	late := f.h.Subscribe(0, 16)
	for _, sub := range []*Subscriber{early, late} {
		ev := next(t, sub)
		if ev.Type != api.EventSnapshot || ev.Seq != 1 || ev.Session.State != api.SessionFailed {
			t.Fatalf("got %s seq %d (session %+v), want the terminal snapshot", ev.Type, ev.Seq, ev.Session)
		}
		if !ev.Snapshot.Equal(api.SessionState{}) {
			t.Errorf("terminal snapshot %+v, want the empty state", *ev.Snapshot)
		}
		assertClosed(t, sub)
	}
}

// TestJobStreamLaggingResyncs: a job subscriber that falls a full queue
// behind resyncs to the current job frame, then follows the stream to
// its terminal frame.
func TestJobStreamLaggingResyncs(t *testing.T) {
	f := &jobFeed{h: &Hub{}}
	sub := f.h.Subscribe(0, 2)
	for _, st := range []string{api.JobQueued, api.JobRunning, api.JobRetrying, api.JobRunning} {
		f.publish(st)
	}
	if got := f.h.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if ev := next(t, sub); ev.Seq != 4 || ev.Job.State != api.JobRunning {
		t.Fatalf("lagged read = seq %d %s, want the current frame (seq 4, running)", ev.Seq, ev.Job.State)
	}
	f.publish(api.JobDone)
	if ev := next(t, sub); ev.Seq != 5 || ev.Job.State != api.JobDone {
		t.Fatalf("read = seq %d %s, want terminal seq 5", ev.Seq, ev.Job.State)
	}
	assertClosed(t, sub)
}

// TestJobStreamResume: a job resume inside the window replays exactly
// the missed frames; a head resume on a live stream waits for the next
// one; any join of a closed job stream gets the terminal frame alone.
func TestJobStreamResume(t *testing.T) {
	f := &jobFeed{h: &Hub{}}
	for _, st := range []string{api.JobQueued, api.JobRunning, api.JobRetrying, api.JobRunning} {
		f.publish(st)
	}
	sub := f.h.Subscribe(1, 0)
	for _, want := range []struct {
		seq   uint64
		state string
	}{{2, api.JobRunning}, {3, api.JobRetrying}, {4, api.JobRunning}} {
		if ev := next(t, sub); ev.Seq != want.seq || ev.Job.State != want.state {
			t.Fatalf("replayed seq %d %s, want seq %d %s", ev.Seq, ev.Job.State, want.seq, want.state)
		}
	}
	head := f.h.Subscribe(4, 0)
	f.publish(api.JobCancelled)
	for _, s := range []*Subscriber{sub, head} {
		if ev := next(t, s); ev.Seq != 5 || ev.Job.State != api.JobCancelled {
			t.Fatalf("read seq %d %s, want terminal seq 5", ev.Seq, ev.Job.State)
		}
		assertClosed(t, s)
	}
	for _, last := range []uint64{0, 2, 5} {
		late := f.h.Subscribe(last, 0)
		if ev := next(t, late); ev.Seq != 5 || ev.Job.State != api.JobCancelled {
			t.Fatalf("join from %d of a closed stream = seq %d %s, want terminal seq 5", last, ev.Seq, ev.Job.State)
		}
		assertClosed(t, late)
	}
}

// TestNextHonorsContext: a blocked Next returns the context error — the
// mechanism stream handlers build heartbeats on.
func TestNextHonorsContext(t *testing.T) {
	h := &Hub{}
	sub := h.Subscribe(0, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
