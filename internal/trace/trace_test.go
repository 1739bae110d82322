package trace

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func TestAdaptationEventString(t *testing.T) {
	e := AdaptationEvent{At: sim.Second, Period: 1, Task: "T", Stage: 2,
		Kind: ActionReplicate, Procs: []int{3}}
	if s := e.String(); !strings.Contains(s, "replicate") || !strings.Contains(s, "procs=[3]") {
		t.Errorf("event string %q", s)
	}
}

func TestWriteRecordsCSV(t *testing.T) {
	events := []Event{{Kind: KindEndToEnd, At: 3*sim.Second + 400*sim.Millisecond, Period: 3,
		Latency: 400 * sim.Millisecond, Deadline: 990 * sim.Millisecond, Value: 42}}
	var b strings.Builder
	if err := WriteRecordsCSV(&b, events); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "period,items,") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "3,42,3000.000,3400.000,400.000,false") {
		t.Errorf("row wrong: %q", out)
	}
}

// TestRecordingKeepsStream: a recording keeps every event in emission
// order, asks for no samples, and lists the adaptation actions.
func TestRecordingKeepsStream(t *testing.T) {
	var r Recording
	if r.SampleEvery() != 0 {
		t.Errorf("recording samples every %v, want 0", r.SampleEvery())
	}
	events := sampleStream()
	for _, e := range events {
		r.Emit(e)
	}
	if len(r.Events) != len(events) {
		t.Fatalf("recorded %d of %d events", len(r.Events), len(events))
	}
	acts := r.Adaptations()
	if len(acts) != 2 || acts[0].Kind != ActionReplicate || acts[1].Kind != ActionAllocFailure {
		t.Errorf("adaptations = %v", acts)
	}
}

// TestEventSize pins the stream's event at 120 bytes or less: the hot
// path copies it by value into every sink.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 120 {
		t.Errorf("trace.Event is %d bytes, want ≤ 120", n)
	}
}
