package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestDiffApplyRoundTrip proves DiffStates/Apply are inverses: folding
// each diff over the previous state reconstructs the next state exactly
// — the invariant the stream consistency checks ride on.
func TestDiffApplyRoundTrip(t *testing.T) {
	states := []SessionState{
		{
			SimMS:   500,
			Nodes:   []SessionNode{{Util: 0.1}, {Util: 0.2}, {Util: 0.3}},
			Tasks:   []SessionTask{{Name: "t", Stages: [][]int{{0}, {1}}, Completed: 1}},
			Metrics: Metrics{Periods: 1, Completed: 1},
		},
		{ // util moves, node crashes, replication, counters grow
			SimMS:   1000,
			Nodes:   []SessionNode{{Util: 0.4}, {Util: 0.2}, {Down: true}},
			Tasks:   []SessionTask{{Name: "t", Stages: [][]int{{0}, {1, 2}}, Completed: 2, Missed: 1}},
			Metrics: Metrics{Periods: 2, Completed: 2, Missed: 1, Replications: 1},
		},
		{ // nothing but time moves: empty diff body
			SimMS:   1500,
			Nodes:   []SessionNode{{Util: 0.4}, {Util: 0.2}, {Down: true}},
			Tasks:   []SessionTask{{Name: "t", Stages: [][]int{{0}, {1, 2}}, Completed: 2, Missed: 1}},
			Metrics: Metrics{Periods: 2, Completed: 2, Missed: 1, Replications: 1},
		},
	}
	folded := states[0].Clone()
	for i := 1; i < len(states); i++ {
		d := DiffStates(states[i-1], states[i])
		if i == 2 && (len(d.Nodes) != 0 || len(d.Tasks) != 0 || d.Metrics != nil) {
			t.Errorf("no-change diff not empty: %+v", d)
		}
		// The diff must survive the wire, too.
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back SessionDiff
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		folded.Apply(back)
		if !folded.Equal(states[i]) {
			t.Fatalf("fold drifted at step %d:\n got %+v\nwant %+v", i, folded, states[i])
		}
	}
}

// TestSessionStateCloneIndependent proves clones share no memory.
func TestSessionStateCloneIndependent(t *testing.T) {
	orig := fixtureSessionState()
	cl := orig.Clone()
	cl.Nodes[0].Util = 9
	cl.Tasks[0].Stages[0][0] = 9
	cl.Tasks[0].Completed = 9
	if orig.Nodes[0].Util == 9 || orig.Tasks[0].Stages[0][0] == 9 || orig.Tasks[0].Completed == 9 {
		t.Error("Clone shares memory with its source")
	}
	if !orig.Equal(orig.Clone()) {
		t.Error("Clone not Equal to its source")
	}
}

// TestEventSSERoundTrip proves WriteSSE → ParseSSE preserves every
// event type, and pins the frame shapes: every frame named with the
// envelope as payload, heartbeats id-less. Names the schema does not
// know — the empty name and the pre-envelope "state" included — return
// ErrUnknownEventType for skipping.
func TestEventSSERoundTrip(t *testing.T) {
	sess := fixtureSession()
	events := []Event{
		{Type: EventJob, Seq: 3, Job: &Job{SchemaVersion: SchemaVersion, ID: "job-1", Kind: "run", State: JobRunning, CreatedMS: 5}},
		{Type: EventSnapshot, Seq: 1, Session: &sess, Snapshot: ptr(fixtureSessionState())},
		{Type: EventDiff, Seq: 2, Session: &sess, Diff: &SessionDiff{SimMS: 1500}},
		{Type: EventHeartbeat},
	}
	for _, ev := range events {
		var buf bytes.Buffer
		if err := ev.WriteSSE(&buf); err != nil {
			t.Fatal(err)
		}
		frame := buf.String()
		if !strings.HasSuffix(frame, "\n\n") {
			t.Errorf("%s frame not terminated by a blank line:\n%q", ev.Type, frame)
		}
		var name, data, id string
		for _, line := range strings.Split(strings.TrimSuffix(frame, "\n\n"), "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case strings.HasPrefix(line, "id: "):
				id = strings.TrimPrefix(line, "id: ")
			}
		}
		if name != ev.Type {
			t.Errorf("frame named %q, want %q", name, ev.Type)
		}
		if ev.Type == EventHeartbeat {
			if id != "" {
				t.Errorf("heartbeat carries an id %q; it must not disturb Last-Event-ID", id)
			}
		} else if id != strconv.FormatUint(ev.Seq, 10) {
			t.Errorf("%s frame id %q, want %d", ev.Type, id, ev.Seq)
		}
		got, err := ParseSSE(name, []byte(data))
		if err != nil {
			t.Fatalf("ParseSSE(%s): %v", ev.Type, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("SSE round trip drifted for %s:\n got %+v\nwant %+v", ev.Type, got, ev)
		}
	}
	for _, name := range []string{"", "state", "telemetry"} {
		if _, err := ParseSSE(name, []byte("{}")); !errors.Is(err, ErrUnknownEventType) {
			t.Errorf("name %q: got %v, want ErrUnknownEventType", name, err)
		}
	}
	if _, err := ParseSSE(EventJob, []byte(`{"type":"job","seq":1}`)); err == nil {
		t.Error("job frame without a job payload accepted")
	}
}

// TestSessionRequestValidateAggregates mirrors the RunRequest test for
// the session knobs.
func TestSessionRequestValidateAggregates(t *testing.T) {
	good := SessionRequest{
		SchemaVersion: SchemaVersion,
		Algorithm:     AlgPredictive,
		Task:          TaskSpec{Pattern: Pattern{Kind: PatternConstant, Value: 500, Periods: 10}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	bad := SessionRequest{
		SchemaVersion: 99,
		Algorithm:     "oracle",
		Task:          TaskSpec{Pattern: Pattern{Kind: PatternConstant, Value: 500, Periods: 10}},
		SampleMS:      -1,
		MaxRateHz:     -2,
		HeartbeatMS:   -3,
		Buffer:        -4,
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("want an error")
	}
	for _, frag := range []string{"schema_version 99", "oracle", "sample_ms", "max_rate_hz", "heartbeat_ms", "buffer"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("aggregated error should mention %q; got:\n%v", frag, err)
		}
	}
}

// TestTerminalSessionState pins which session states are final.
func TestTerminalSessionState(t *testing.T) {
	for state, terminal := range map[string]bool{
		SessionRunning: false, SessionPaused: false,
		SessionDone: true, SessionStopped: true, SessionFailed: true,
	} {
		if TerminalSessionState(state) != terminal {
			t.Errorf("TerminalSessionState(%q) = %v, want %v", state, TerminalSessionState(state), terminal)
		}
	}
}
