package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
)

func sampleRecords() []*task.PeriodRecord {
	return []*task.PeriodRecord{{
		Period: 0, Items: 50,
		ReleasedAt: 0, CompletedAt: 400 * sim.Millisecond,
		Deadline: sim.Second,
		Stages: []task.StageObservation{
			{ReadyAt: 0, DoneAt: 300 * sim.Millisecond, DeliveredAt: 350 * sim.Millisecond, Replicas: 1},
			{ReadyAt: 350 * sim.Millisecond, DoneAt: 400 * sim.Millisecond, DeliveredAt: 400 * sim.Millisecond, Replicas: 2},
		},
	}, {
		Period: 1, Items: 60,
		ReleasedAt: sim.Second, CompletedAt: sim.Second + 1200*sim.Millisecond,
		Deadline: 2 * sim.Second,
		Stages:   []task.StageObservation{{Replicas: 1}, {Replicas: 1}},
	}}
}

func sampleEvents() []AdaptationEvent {
	return []AdaptationEvent{{
		At: 2 * sim.Second, Period: 2, Task: "aaw", Stage: 1,
		Kind: ActionReplicate, Procs: []int{3},
	}, {
		At: 3 * sim.Second, Period: 3, Task: "aaw", Stage: 1,
		Kind: ActionAllocFailure,
	}}
}

// readRunJSON writes the run document and decodes it back.
func readRunJSON(t *testing.T, run RunJSON) RunJSON {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRunJSON(&buf, run); err != nil {
		t.Fatalf("WriteRunJSON: %v", err)
	}
	var back RunJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return back
}

func TestWriteJSONRoundTrip(t *testing.T) {
	records, events := sampleRecords(), sampleEvents()
	run := RunToJSON(metrics.RunMetrics{}, records, events)
	got := readRunJSON(t, run)
	want := RunJSON{
		Summary: SummaryToJSON(metrics.RunMetrics{}),
		Periods: []PeriodJSON{PeriodToJSON(records[0]), PeriodToJSON(records[1])},
		Events:  []EventJSON{EventToJSON(events[0]), EventToJSON(events[1])},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestWriteJSONMatchesCSVContent(t *testing.T) {
	// The JSON and CSV writers must agree on the derived values.
	records := sampleRecords()
	doc := readRunJSON(t, RunToJSON(metrics.RunMetrics{}, records, sampleEvents()))
	var csv strings.Builder
	if err := WriteRecordsCSV(&csv, records); err != nil {
		t.Fatal(err)
	}
	r0 := doc.Periods[0]
	if r0.LatencyMS != 400 || !strings.Contains(csv.String(), "\n0,50,0.000,400.000,400.000,false\n") {
		t.Errorf("latency_ms = %v, CSV %q; want 400 in both", r0.LatencyMS, csv.String())
	}
	if r0.Missed {
		t.Error("record 0 marked missed; completed well before its deadline")
	}
	if doc.Periods[1].Missed != strings.Contains(csv.String(), "1200.000,true") || !doc.Periods[1].Missed {
		t.Errorf("record 1 missed: JSON %v, CSV %q", doc.Periods[1].Missed, csv.String())
	}
	if got := r0.Stages[0]; got.ExecMS != 300 || got.CommMS != 50 || got.Replicas != 1 {
		t.Errorf("stage 0 = %+v, want exec 300ms, comm 50ms, 1 replica", got)
	}
	if e := doc.Events[0]; e.AtMS != 2000 || e.Kind != "replicate" || len(e.Procs) != 1 {
		t.Errorf("event 0 = %+v", e)
	}
	if e := doc.Events[1]; e.Procs != nil {
		t.Errorf("event without procs round-tripped as %v, want nil (omitempty)", e.Procs)
	}
}

func TestWriteJSONEmptyLog(t *testing.T) {
	// A run that completed nothing and never adapted encodes no detail.
	doc := readRunJSON(t, RunToJSON(metrics.RunMetrics{}, []*task.PeriodRecord{}, []AdaptationEvent{}))
	if len(doc.Periods) != 0 || len(doc.Events) != 0 {
		t.Errorf("empty run round-tripped as %+v", doc)
	}
}

// sampleRun is a one-period run: two of three instances completed (one
// missed) and one replication.
func sampleRun() (metrics.RunMetrics, []*task.PeriodRecord, []AdaptationEvent) {
	c := metrics.NewCollector(6)
	c.ObservePeriodStart(0.5, 0.25, 2)
	c.ObserveCompletion(false)
	c.ObserveCompletion(true)
	c.CountReplications(2)
	rec := &task.PeriodRecord{
		Period: 1, Items: 1000,
		ReleasedAt:  sim.Second,
		CompletedAt: sim.Second + 400*sim.Millisecond,
		Deadline:    sim.Second + 990*sim.Millisecond,
		Stages: []task.StageObservation{{
			ReadyAt: sim.Second, DoneAt: sim.Second + 300*sim.Millisecond,
			DeliveredAt: sim.Second + 350*sim.Millisecond, Replicas: 2,
		}},
	}
	events := []AdaptationEvent{{
		At: 2 * sim.Second, Period: 2, Task: "T", Stage: 2,
		Kind: ActionReplicate, Procs: []int{3, 4},
	}}
	return c.Finish(), []*task.PeriodRecord{rec}, events
}

func TestRunToJSONFull(t *testing.T) {
	run := RunToJSON(sampleRun())
	if run.Summary.Completed != 2 || run.Summary.Missed != 1 {
		t.Errorf("summary = %+v", run.Summary)
	}
	if len(run.Periods) != 1 {
		t.Fatalf("periods = %d", len(run.Periods))
	}
	p := run.Periods[0]
	if p.LatencyMS != 400 || p.Missed {
		t.Errorf("period = %+v", p)
	}
	if len(p.Stages) != 1 || p.Stages[0].ExecMS != 300 || p.Stages[0].CommMS != 50 {
		t.Errorf("stages = %+v", p.Stages)
	}
	if len(run.Events) != 1 || run.Events[0].Kind != "replicate" || run.Events[0].AtMS != 2000 {
		t.Errorf("events = %+v", run.Events)
	}
}

func TestRunToJSONSummaryOnly(t *testing.T) {
	m, _, _ := sampleRun()
	run := RunToJSON(m, nil, nil)
	if run.Periods != nil || run.Events != nil {
		t.Error("summary-only run carried detail")
	}
	var b strings.Builder
	if err := WriteRunJSON(&b, run); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `"periods": [`) || strings.Contains(b.String(), `"events"`) {
		t.Errorf("summary-only document encoded empty detail:\n%s", b.String())
	}
}

func TestWriteRunJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteRunJSON(&b, RunToJSON(sampleRun())); err != nil {
		t.Fatal(err)
	}
	var back RunJSON
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	m, _, _ := sampleRun()
	if back.Summary.Combined != SummaryToJSON(m).Combined {
		t.Error("round trip changed the combined metric")
	}
	for _, key := range []string{`"missed_pct"`, `"combined_metric"`, `"latency_ms"`, `"procs"`} {
		if !strings.Contains(b.String(), key) {
			t.Errorf("JSON missing %s", key)
		}
	}
}
