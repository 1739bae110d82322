package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

const ms = sim.Millisecond

// adaptation is a KindAdaptation event carrying its action.
func adaptation(a AdaptationEvent, value int64) Event {
	return Event{Kind: KindAdaptation, At: a.At, Task: a.Task, Stage: int32(a.Stage),
		Period: int32(a.Period), Value: value, Action: &a}
}

// sampleStream is a recorded run of two completed two-stage periods and
// two adaptation actions, among spans the writers skip.
func sampleStream() []Event {
	return []Event{
		{Kind: KindExec, At: 300 * ms, Task: "aaw", Proc: 2, Value: 50},
		{Kind: KindStage, At: 400 * ms, Task: "aaw", Stage: 0, Latency: 300 * ms, Comm: 50 * ms, Value: 1},
		{Kind: KindStage, At: 400 * ms, Task: "aaw", Stage: 1, Latency: 50 * ms, Comm: -1, Value: 2},
		{Kind: KindEndToEnd, At: 400 * ms, Task: "aaw", Latency: 400 * ms, Deadline: sim.Second, Value: 50},
		adaptation(AdaptationEvent{At: 2 * sim.Second, Period: 2, Task: "aaw", Stage: 1,
			Kind: ActionReplicate, Procs: []int{3}}, 1),
		{Kind: KindStage, At: 2200 * ms, Task: "aaw", Period: 1, Stage: 0, Value: 1},
		{Kind: KindStage, At: 2200 * ms, Task: "aaw", Period: 1, Stage: 1, Comm: -1, Value: 1},
		{Kind: KindEndToEnd, At: 2200 * ms, Task: "aaw", Period: 1, Latency: 1200 * ms, Deadline: sim.Second,
			Missed: true, Value: 60},
		adaptation(AdaptationEvent{At: 3 * sim.Second, Period: 3, Task: "aaw", Stage: 1,
			Kind: ActionAllocFailure}, 0),
	}
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
	got := readRunJSON(t, RunToJSON(metrics.RunMetrics{}, sampleStream()))
	want := RunJSON{
		Summary: SummaryToJSON(metrics.RunMetrics{}),
		Periods: []PeriodJSON{
			{Period: 0, Items: 50, LatencyMS: 400, Stages: []StageJSON{
				{ExecMS: 300, CommMS: 50, Replicas: 1}, {ExecMS: 50, Replicas: 2}}},
			{Period: 1, Items: 60, LatencyMS: 1200, Missed: true, Stages: []StageJSON{
				{Replicas: 1}, {Replicas: 1}}},
		},
		Events: []EventJSON{
			{AtMS: 2000, Period: 2, Task: "aaw", Stage: 1, Kind: "replicate", Procs: []int{3}},
			{AtMS: 3000, Period: 3, Task: "aaw", Stage: 1, Kind: "alloc-failure"},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestWriteJSONMatchesCSVContent(t *testing.T) {
	// The JSON and CSV writers must agree on the derived values.
	events := sampleStream()
	doc := readRunJSON(t, RunToJSON(metrics.RunMetrics{}, events))
	var csv strings.Builder
	if err := WriteRecordsCSV(&csv, events); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(csv.String(), "\n"); rows != 3 {
		t.Errorf("CSV has %d lines, want a header and 2 rows:\n%s", rows, csv.String())
	}
	r0 := doc.Periods[0]
	if r0.LatencyMS != 400 || !strings.Contains(csv.String(), "\n0,50,0.000,400.000,400.000,false\n") {
		t.Errorf("latency_ms = %v, CSV %q; want 400 in both", r0.LatencyMS, csv.String())
	}
	if r0.Missed {
		t.Error("record 0 marked missed; completed well before its deadline")
	}
	if doc.Periods[1].Missed != strings.Contains(csv.String(), "1,60,1000.000,2200.000,1200.000,true") || !doc.Periods[1].Missed {
		t.Errorf("record 1 missed: JSON %v, CSV %q", doc.Periods[1].Missed, csv.String())
	}
	if got := r0.Stages[0]; got.ExecMS != 300 || got.CommMS != 50 || got.Replicas != 1 {
		t.Errorf("stage 0 = %+v, want exec 300ms, comm 50ms, 1 replica", got)
	}
	if got := r0.Stages[1]; got.CommMS != 0 {
		t.Errorf("final stage comm = %v ms, want 0", got.CommMS)
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
	doc := readRunJSON(t, RunToJSON(metrics.RunMetrics{}, []Event{{Kind: KindNetUtil, Util: 0.5}}))
	if len(doc.Periods) != 0 || len(doc.Events) != 0 {
		t.Errorf("empty run round-tripped as %+v", doc)
	}
}

// sampleRun is a one-period run: two of three instances completed (one
// missed) and one replication.
func sampleRun() (metrics.RunMetrics, []Event) {
	c := metrics.NewCollector(6)
	c.ObservePeriodStart(0.5, 0.25, 2)
	c.ObserveCompletion(false)
	c.ObserveCompletion(true)
	c.CountReplications(2)
	at := sim.Second + 400*ms
	return c.Finish(), []Event{
		{Kind: KindStage, At: at, Task: "T", Period: 1, Latency: 300 * ms, Comm: 50 * ms, Value: 2},
		{Kind: KindEndToEnd, At: at, Task: "T", Period: 1, Latency: 400 * ms, Deadline: 990 * ms, Value: 1000},
		adaptation(AdaptationEvent{At: 2 * sim.Second, Period: 2, Task: "T", Stage: 2,
			Kind: ActionReplicate, Procs: []int{3, 4}}, 2),
	}
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
	if p.LatencyMS != 400 || p.Missed || p.Items != 1000 {
		t.Errorf("period = %+v", p)
	}
	if len(p.Stages) != 1 || p.Stages[0].ExecMS != 300 || p.Stages[0].CommMS != 50 || p.Stages[0].Replicas != 2 {
		t.Errorf("stages = %+v", p.Stages)
	}
	if len(run.Events) != 1 || run.Events[0].Kind != "replicate" || run.Events[0].AtMS != 2000 {
		t.Errorf("events = %+v", run.Events)
	}
}

func TestRunToJSONSummaryOnly(t *testing.T) {
	m, _ := sampleRun()
	run := RunToJSON(m, nil)
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
	m, _ := sampleRun()
	if back.Summary.Combined != SummaryToJSON(m).Combined {
		t.Error("round trip changed the combined metric")
	}
	for _, key := range []string{`"missed_pct"`, `"combined_metric"`, `"latency_ms"`, `"procs"`} {
		if !strings.Contains(b.String(), key) {
			t.Errorf("JSON missing %s", key)
		}
	}
}
