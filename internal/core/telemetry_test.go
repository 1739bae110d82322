package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// runWithTelemetry drives the benchmark task with a recorder as the
// run's sink.
func runWithTelemetry(t *testing.T, alg Algorithm, pattern workload.Pattern) *telemetry.Recorder {
	t.Helper()
	rec := telemetry.New()
	if _, err := RunObservedContext(context.Background(), DefaultConfig(), alg, []TaskSetup{benchSetup(pattern)}, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestTelemetryDisabledByDefault: Run observes nothing, and the observed
// entry point with a nil sink is that same unobserved run, down to the
// engine event count.
func TestTelemetryDisabledByDefault(t *testing.T) {
	pattern := workload.NewTriangular(500, 9000, 30, 2)
	plain, err := Run(DefaultConfig(), Predictive, []TaskSetup{benchSetup(pattern)})
	if err != nil {
		t.Fatal(err)
	}
	nilSink, err := RunObservedContext(context.Background(), DefaultConfig(), Predictive, []TaskSetup{benchSetup(pattern)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, nilSink) {
		t.Errorf("nil-sink run differs from Run: events fired %d vs %d", nilSink.EventsFired, plain.EventsFired)
	}
}

func TestTelemetryCapturesRun(t *testing.T) {
	pattern := workload.NewTriangular(500, 3000, 60, 3)
	periods := pattern.Periods()
	rec := runWithTelemetry(t, Predictive, pattern)
	snap := rec.Snapshot()

	if len(snap.Stages) == 0 || len(snap.Tasks) != 1 {
		t.Fatalf("stages=%d tasks=%d", len(snap.Stages), len(snap.Tasks))
	}
	task := snap.Tasks[0]
	if task.Instances != uint64(periods) {
		t.Errorf("instances = %d, want %d", task.Instances, periods)
	}
	if task.Latency.Count != uint64(periods) || task.Latency.P50MS <= 0 {
		t.Errorf("e2e latency = %+v", task.Latency)
	}
	// Quantiles must be ordered and inside the envelope.
	l := task.Latency
	if !(l.MinMS <= l.P50MS && l.P50MS <= l.P95MS && l.P95MS <= l.P99MS && l.P99MS <= l.MaxMS) {
		t.Errorf("latency quantiles out of order: %+v", l)
	}
	for _, st := range snap.Stages {
		if st.Latency.Count != uint64(periods) {
			t.Errorf("stage %d latency count = %d, want %d", st.Stage, st.Latency.Count, periods)
		}
		if st.Slack.Count != uint64(periods) {
			t.Errorf("stage %d slack count = %d", st.Stage, st.Slack.Count)
		}
	}
	// Every stage of every period was predicted and observed.
	if len(snap.Forecast) != len(snap.Stages) {
		t.Fatalf("forecast series = %d, stages = %d", len(snap.Forecast), len(snap.Stages))
	}
	for _, fs := range snap.Forecast {
		if fs.Exec.Matched != periods {
			t.Errorf("stage %d exec forecasts matched = %d, want %d", fs.Stage, fs.Exec.Matched, periods)
		}
		if fs.Exec.PendingNow != 0 {
			t.Errorf("stage %d has %d dangling predictions", fs.Stage, fs.Exec.PendingNow)
		}
		if fs.Stage < len(snap.Forecast)-1 && fs.Comm.Matched != periods {
			t.Errorf("stage %d comm forecasts matched = %d, want %d", fs.Stage, fs.Comm.Matched, periods)
		}
		if fs.Stage == len(snap.Forecast)-1 && fs.Comm.Matched != 0 {
			t.Errorf("final stage tracked %d comm forecasts, want 0", fs.Comm.Matched)
		}
	}
	// The pipeline sends messages between consecutive stages every period.
	if snap.Network.WireMsgs+snap.Network.LocalMsgs == 0 {
		t.Error("no messages recorded")
	}
	if snap.QueueWait.Count == 0 {
		t.Error("no queue waits recorded (cpu observer not wired)")
	}
	if snap.Spans == 0 {
		t.Error("no spans captured")
	}
	// The triangular ramp forces replication under the predictive
	// allocator, so forecast evaluations and adaptations must appear.
	var evals uint64
	for _, st := range snap.Stages {
		evals += st.ForecastEvals
	}
	if evals == 0 {
		t.Error("no Figure 5 forecast evaluations counted (probe not wired)")
	}
	if snap.Counters[`rm_adaptations_total{kind="replicate"}`] == 0 {
		t.Errorf("no replicate adaptations counted: %v", snap.Counters)
	}
	if snap.Gauges["rm_net_util"] < 0 {
		t.Errorf("net util gauge = %v", snap.Gauges["rm_net_util"])
	}
}

func TestTelemetryExportersOnRealRun(t *testing.T) {
	rec := runWithTelemetry(t, Predictive, workload.NewConstant(1500, 10))

	var prom bytes.Buffer
	if err := rec.Registry().WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{"rm_e2e_latency_count", "rm_stage_latency_bucket", "rm_cpu_util"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %s", want)
		}
	}

	var snapJSON bytes.Buffer
	if err := rec.WriteSnapshot(&snapJSON); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	var snapDoc map[string]any
	if err := json.Unmarshal(snapJSON.Bytes(), &snapDoc); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}

	var chrome bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var traceDoc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &traceDoc); err != nil {
		t.Fatalf("chrome trace JSON invalid: %v", err)
	}
	if len(traceDoc.TraceEvents) < 10 {
		t.Errorf("chrome trace has only %d events", len(traceDoc.TraceEvents))
	}
}

func TestTelemetryRunIdenticalResults(t *testing.T) {
	// Attaching a recorder must not perturb the simulation itself.
	pattern := workload.NewTriangular(500, 3000, 30, 2)
	plain, err := Run(DefaultConfig(), Predictive, []TaskSetup{benchSetup(pattern)})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := RunObservedContext(context.Background(), DefaultConfig(), Predictive,
		[]TaskSetup{benchSetup(pattern)}, telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != instrumented.Metrics || plain.EventsFired != instrumented.EventsFired {
		t.Errorf("telemetry changed run results:\nplain        %+v\ninstrumented %+v",
			plain.Metrics, instrumented.Metrics)
	}
}
