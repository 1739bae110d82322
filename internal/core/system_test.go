package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dynbench"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchSetup builds the Table 1 benchmark task with ground-truth models —
// the fast path for unit tests (experiments profile the models instead).
func benchSetup(pattern workload.Pattern) TaskSetup {
	spec := dynbench.NewTask(dynbench.DefaultConfig())
	exec := make([]regress.ExecModel, len(spec.Subtasks))
	for i := range exec {
		exec[i] = dynbench.GroundTruthExec(i)
	}
	net := DefaultConfig().Network
	return TaskSetup{
		Spec:    spec,
		Pattern: pattern,
		Exec:    exec,
		Comm: regress.CommModel{
			K:                       regress.PaperBufferSlopeK,
			LinkBps:                 net.BandwidthBps,
			BytesPerItem:            dynbench.TrackBytes,
			PerMessageOverheadBytes: net.PerMessageOverheadBytes,
			FrameOverheadBytes:      net.FrameOverheadBytes,
			MTU:                     net.MTU,
		},
	}
}

// recorded is a run's result beside its recorded observation stream,
// the one record of what the run did.
type recorded struct {
	Result
	rec *trace.Recording
}

// of returns the recorded events of kind k in stream order.
func (r recorded) of(k trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range r.rec.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// runRecorded runs setups under cfg with a recording sink.
func runRecorded(t testing.TB, cfg Config, alg Algorithm, setups ...TaskSetup) recorded {
	t.Helper()
	rec := &trace.Recording{}
	res, err := RunObservedContext(context.Background(), cfg, alg, setups, rec)
	if err != nil {
		t.Fatal(err)
	}
	return recorded{res, rec}
}

func run(t *testing.T, alg Algorithm, pattern workload.Pattern) recorded {
	t.Helper()
	return runRecorded(t, DefaultConfig(), alg, benchSetup(pattern))
}

func TestLowConstantWorkloadNoAdaptation(t *testing.T) {
	res := run(t, Predictive, workload.NewConstant(500, 20))
	m := res.Metrics
	if m.Completed != 20 {
		t.Fatalf("completed %d of 20", m.Completed)
	}
	if m.Missed != 0 {
		t.Errorf("missed %d at trivial workload", m.Missed)
	}
	if m.Replications != 0 || m.Shutdowns != 0 {
		t.Errorf("adaptation at trivial workload: %+v", m)
	}
	if m.MeanReplicas != 1 {
		t.Errorf("mean replicas = %v, want 1", m.MeanReplicas)
	}
}

func TestStepWorkloadTriggersPredictiveReplication(t *testing.T) {
	res := run(t, Predictive, workload.NewStep(500, 8000, 30, 10))
	m := res.Metrics
	if m.Completed != 30 {
		t.Fatalf("completed %d of 30", m.Completed)
	}
	if m.Replications == 0 {
		t.Fatal("no replication after the workload step")
	}
	// After adaptation settles, instances meet their deadlines: the tail
	// of the run must be clean.
	missedLate := 0
	for _, e := range res.of(trace.KindEndToEnd) {
		if e.Period >= 15 && e.Missed {
			missedLate++
		}
	}
	if missedLate > 2 {
		t.Errorf("%d misses after adaptation settled", missedLate)
	}
	// The replicate events must target the replicable stages only.
	for _, e := range res.rec.Adaptations() {
		if e.Kind == trace.ActionReplicate &&
			e.Stage != dynbench.FilterStage && e.Stage != dynbench.EvalDecideStage {
			t.Errorf("replicated non-replicable stage %d", e.Stage)
		}
	}
}

func TestNonPredictiveReplicatesAggressively(t *testing.T) {
	// Figure 9(d)'s pattern: under the fluctuating triangular workload
	// the threshold heuristic holds more replicas on average than the
	// forecast-driven allocator.
	pattern := workload.NewTriangular(500, 10000, 120, 2)
	pres := run(t, Predictive, pattern)
	npres := run(t, NonPredictive, pattern)
	if npres.Metrics.Replications == 0 {
		t.Fatal("non-predictive never replicated")
	}
	if npres.Metrics.MeanReplicas <= pres.Metrics.MeanReplicas {
		t.Errorf("non-predictive mean replicas %v ≤ predictive %v (paper Figure 9d inverts this)",
			npres.Metrics.MeanReplicas, pres.Metrics.MeanReplicas)
	}
}

func TestDecreasingWorkloadShedsReplicas(t *testing.T) {
	res := run(t, Predictive, workload.NewDecreasingRamp(500, 10000, 40))
	if res.Metrics.Replications == 0 {
		t.Fatal("high initial workload never triggered replication")
	}
	if res.Metrics.Shutdowns == 0 {
		t.Error("falling workload never shed a replica")
	}
}

func TestDeterministicRuns(t *testing.T) {
	pattern := workload.NewTriangular(500, 9000, 30, 1)
	a := run(t, Predictive, pattern)
	b := run(t, Predictive, pattern)
	if a.Metrics != b.Metrics {
		t.Errorf("same-seed runs diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.rec.Events, b.rec.Events) {
		t.Fatal("same-seed observation streams diverged")
	}
}

func TestSeedChangesOutcomeDetails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 99
	pattern := workload.NewTriangular(500, 9000, 30, 1)
	a := runRecorded(t, cfg, Predictive, benchSetup(pattern)).of(trace.KindEndToEnd)
	b := run(t, Predictive, pattern).of(trace.KindEndToEnd)
	same := true
	for i := range a {
		if i >= len(b) || a[i].Latency != b[i].Latency {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical latency traces")
	}
}

func TestMetricsSanity(t *testing.T) {
	res := run(t, NonPredictive, workload.NewTriangular(500, 12000, 40, 2))
	m := res.Metrics
	if m.MeanCPUUtil < 0 || m.MeanCPUUtil > 1 {
		t.Errorf("CPU util %v out of [0,1]", m.MeanCPUUtil)
	}
	if m.MeanNetUtil < 0 || m.MeanNetUtil > 1 {
		t.Errorf("net util %v out of [0,1]", m.MeanNetUtil)
	}
	if m.MeanReplicas < 1 || m.MeanReplicas > 6 {
		t.Errorf("mean replicas %v out of [1,6]", m.MeanReplicas)
	}
	if m.Completed != m.Periods {
		t.Errorf("completed %d of %d periods", m.Completed, m.Periods)
	}
	if m.Combined() <= 0 {
		t.Error("combined metric not positive on a loaded run")
	}
}

func TestMultiTaskRun(t *testing.T) {
	s1 := benchSetup(workload.NewConstant(2000, 15))
	s2 := benchSetup(workload.NewConstant(1500, 15))
	s2.Spec.Name = "AAW-2"
	s2.Homes = []int{3, 4, 5, 0, 1} // offset placement
	res, err := Run(DefaultConfig(), Predictive, []TaskSetup{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Completed != 30 {
		t.Errorf("completed %d of 30 instances across two tasks", res.Metrics.Completed)
	}
}

func TestRunValidation(t *testing.T) {
	good := benchSetup(workload.NewConstant(100, 2))
	if _, err := Run(DefaultConfig(), "bogus", []TaskSetup{good}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Run(DefaultConfig(), Predictive, nil); err == nil {
		t.Error("empty task set accepted")
	}
	bad := DefaultConfig()
	bad.NumNodes = 0
	if _, err := Run(bad, Predictive, []TaskSetup{good}); err == nil {
		t.Error("zero nodes accepted")
	}
	short := good
	short.Exec = short.Exec[:2]
	if _, err := Run(DefaultConfig(), Predictive, []TaskSetup{short}); err == nil {
		t.Error("short exec models accepted")
	}
	noPattern := good
	noPattern.Pattern = nil
	if _, err := Run(DefaultConfig(), Predictive, []TaskSetup{noPattern}); err == nil {
		t.Error("missing pattern accepted")
	}
	badHomes := good
	badHomes.Homes = []int{0, 1, 2, 3, 99}
	if _, err := Run(DefaultConfig(), Predictive, []TaskSetup{badHomes}); err == nil {
		t.Error("out-of-range home accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := map[string]func(Config) Config{
		"nodes":   func(c Config) Config { c.NumNodes = 0; return c },
		"slice":   func(c Config) Config { c.Slice = 0; return c },
		"ut":      func(c Config) Config { c.UtilThreshold = 0; return c },
		"warmup":  func(c Config) Config { c.WarmupDemand = -1; return c },
		"overlap": func(c Config) Config { c.OverlapFraction = 1; return c },
	}
	for name, mutate := range cases {
		if err := mutate(DefaultConfig()).Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestZeroWorkloadPeriods(t *testing.T) {
	res := run(t, Predictive, workload.NewConstant(0, 5))
	if res.Metrics.Completed != 5 {
		t.Fatalf("completed %d of 5 zero-item periods", res.Metrics.Completed)
	}
	if res.Metrics.Missed != 0 {
		t.Error("zero-item periods missed deadlines")
	}
}

// TestRecordsCarryStageObservations: every completed period reaches the
// stream as its stages, in order, then its end-to-end record, at one
// instant; each stage's execution and outgoing-message latencies are
// non-negative (the final stage has no message) and together fit inside
// the end-to-end latency.
func TestRecordsCarryStageObservations(t *testing.T) {
	res := run(t, Predictive, workload.NewConstant(3000, 5))
	var stages []trace.Event
	completions := 0
	for _, e := range res.rec.Events {
		switch e.Kind {
		case trace.KindStage:
			stages = append(stages, e)
		case trace.KindEndToEnd:
			completions++
			if len(stages) != 5 {
				t.Fatalf("period %d has %d stages", e.Period, len(stages))
			}
			var sum sim.Time
			for i, st := range stages {
				if int(st.Stage) != i || st.Period != e.Period || st.At != e.At || st.Value < 1 {
					t.Errorf("period %d stage %d: %+v", e.Period, i, st)
				}
				if st.Latency < 0 {
					t.Errorf("period %d stage %d done before ready", e.Period, i)
				}
				if (i < 4 && st.Comm < 0) || (i == 4 && st.Comm >= 0) {
					t.Errorf("period %d stage %d comm latency %v", e.Period, i, st.Comm)
				}
				sum += st.Latency + max(st.Comm, 0)
			}
			if sum > e.Latency+sim.Millisecond {
				t.Errorf("stage latencies %v exceed end-to-end %v", sum, e.Latency)
			}
			stages = stages[:0]
		}
	}
	if completions != 5 {
		t.Errorf("stream carried %d completions, want 5", completions)
	}
}
