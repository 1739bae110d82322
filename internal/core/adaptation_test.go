package core

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dynbench"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestAdaptationOnlyAtPeriodBoundaries(t *testing.T) {
	res := run(t, Predictive, workload.NewStep(500, 9000, 30, 10))
	for _, e := range res.rec.Adaptations() {
		if e.At%dynbench.Period != 0 {
			t.Fatalf("adaptation at %v, not a period boundary", e.At)
		}
	}
}

func TestAllocFailureLogged(t *testing.T) {
	// Near saturation the EQF windows shrink below what even six
	// replicas can forecast, so Figure 5 returns FAILURE and the runner
	// records it.
	res := run(t, Predictive, workload.NewTriangular(500, 14000, 120, 2))
	m := res.Metrics
	if m.AllocFailures == 0 {
		t.Fatal("no allocation failures near saturation")
	}
	failEvents := 0
	for _, e := range res.rec.Adaptations() {
		if e.Kind == trace.ActionAllocFailure {
			failEvents++
		}
	}
	if failEvents != m.AllocFailures {
		t.Errorf("failure events %d != metric %d", failEvents, m.AllocFailures)
	}
}

func TestReplicaCountsNeverExceedNodes(t *testing.T) {
	res := run(t, NonPredictive, workload.NewTriangular(500, 17500, 120, 2))
	for _, st := range res.of(trace.KindStage) {
		if st.Value < 1 || st.Value > 6 {
			t.Fatalf("period %d stage %d replicas = %d", st.Period, st.Stage, st.Value)
		}
	}
}

func TestOnlyReplicableStagesEverReplicated(t *testing.T) {
	res := run(t, NonPredictive, workload.NewTriangular(500, 14000, 120, 2))
	for _, st := range res.of(trace.KindStage) {
		if i := int(st.Stage); i != dynbench.FilterStage && i != dynbench.EvalDecideStage && st.Value != 1 {
			t.Fatalf("non-replicable stage %d ran %d replicas", i, st.Value)
		}
	}
}

func TestGreedyAndStaticRunViaCore(t *testing.T) {
	pattern := workload.NewTriangular(500, 9000, 40, 1)
	g, err := Run(DefaultConfig(), Greedy, []TaskSetup{benchSetup(pattern)})
	if err != nil {
		t.Fatal(err)
	}
	if g.Metrics.Completed != 40 {
		t.Errorf("greedy completed %d of 40", g.Metrics.Completed)
	}
	s, err := Run(DefaultConfig(), StaticMax, []TaskSetup{benchSetup(pattern)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics.Completed != 40 {
		t.Errorf("static completed %d of 40", s.Metrics.Completed)
	}
	// Static holds every replicable stage at six replicas and never acts.
	if s.Metrics.MeanReplicas != 6 {
		t.Errorf("static mean replicas = %v, want 6", s.Metrics.MeanReplicas)
	}
	if s.Metrics.Replications != 0 || s.Metrics.Shutdowns != 0 {
		t.Error("static adapted")
	}
}

func TestShutdownsFollowHighSlack(t *testing.T) {
	// Rise then collapse: the predictive allocator must shed replicas
	// after the collapse, and every shutdown event must target a
	// replicable stage.
	res := run(t, Predictive, workload.NewTriangular(500, 12000, 60, 1))
	var sawShutdownAfterPeak bool
	for _, e := range res.rec.Adaptations() {
		if e.Kind != trace.ActionShutdown {
			continue
		}
		if e.Stage != dynbench.FilterStage && e.Stage != dynbench.EvalDecideStage {
			t.Fatalf("shutdown on non-replicable stage %d", e.Stage)
		}
		if e.Period > 30 {
			sawShutdownAfterPeak = true
		}
	}
	if !sawShutdownAfterPeak {
		t.Error("no shutdowns on the falling half of the triangle")
	}
}

// TestProcessorDisciplineConfig runs the processor-sharing discipline
// unobserved and with a recording sink: the sink sees its job waits
// (the scheduler-level observer) and exec spans, and watching leaves the
// metrics as they are.
func TestProcessorDisciplineConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Discipline = cpu.ProcessorSharing
	setup := benchSetup(workload.NewConstant(4000, 10))
	res, err := Run(cfg, Predictive, []TaskSetup{setup})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Completed != 10 {
		t.Errorf("completed %d of 10 under processor sharing", res.Metrics.Completed)
	}
	observed := runRecorded(t, cfg, Predictive, setup)
	if observed.Metrics != res.Metrics || observed.EventsFired != res.EventsFired {
		t.Errorf("recording changed the run:\n got %+v\nwant %+v", observed.Metrics, res.Metrics)
	}
	waits, execs := len(observed.of(trace.KindJobWait)), len(observed.of(trace.KindExec))
	if waits == 0 || execs == 0 || waits < execs {
		t.Errorf("processor sharing streamed %d job waits and %d execs; want both, waits ≥ execs", waits, execs)
	}
}

func TestStaleWorkloadDrivesAllocator(t *testing.T) {
	// On a steep ramp the allocator always plans with the previous
	// period's item count, so growth is corrected incrementally —
	// replication events appear on several distinct periods rather than
	// one oversized reaction.
	res := run(t, Predictive, workload.NewIncreasingRamp(500, 14000, 30))
	periods := map[int]bool{}
	for _, e := range res.rec.Adaptations() {
		if e.Kind == trace.ActionReplicate && e.Stage == dynbench.FilterStage {
			periods[e.Period] = true
		}
	}
	if len(periods) < 2 {
		t.Errorf("replication confined to %d period(s); staleness should spread it", len(periods))
	}
}
