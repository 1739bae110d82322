package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dynbench"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// faultCfg crashes the Filter subtask's home node (node 2) mid-period at
// t = 10.2 s — while the Filter job of period 10 is executing — and
// recovers it at 25.2 s.
func faultCfg() Config {
	cfg := DefaultConfig()
	cfg.Faults = []Fault{{Node: dynbench.FilterStage, At: 10200 * sim.Millisecond, Duration: 15 * sim.Second}}
	return cfg
}

func TestFaultValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = []Fault{{Node: 9, At: sim.Second}}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range fault node accepted")
	}
	cfg.Faults = []Fault{{Node: 0, At: -1}}
	if err := cfg.Validate(); err == nil {
		t.Error("negative fault time accepted")
	}
}

func TestSoleReplicaFailsOver(t *testing.T) {
	// Low constant workload: no replication, so the crash takes out the
	// only Filter process and fail-over must relocate it.
	res := runRecorded(t, faultCfg(), Predictive, benchSetup(workload.NewConstant(5000, 40)))
	var downs, ups, failovers int
	for _, e := range res.rec.Adaptations() {
		switch e.Kind {
		case trace.ActionNodeDown:
			downs++
		case trace.ActionNodeUp:
			ups++
		case trace.ActionFailover:
			failovers++
		}
	}
	if downs != 1 || ups != 1 {
		t.Errorf("downs=%d ups=%d, want 1 each", downs, ups)
	}
	if failovers == 0 {
		t.Fatal("no fail-over event despite losing the Filter node")
	}
	if res.Failovers != failovers {
		t.Errorf("result counts %d fail-overs, stream carries %d", res.Failovers, failovers)
	}
	m := res.Metrics
	// The in-flight instance at crash time is lost; everything after the
	// next monitoring cycle completes.
	if m.Completed >= m.Periods {
		t.Error("no instance lost to the crash")
	}
	if m.Periods-m.Completed > 3 {
		t.Errorf("%d instances lost; fail-over too slow", m.Periods-m.Completed)
	}
	if m.MissedPct() == 0 {
		t.Error("lost instances did not count as missed")
	}
	// The relocated Filter keeps the pipeline alive through the outage:
	// late periods all complete.
	completedLate := 0
	for _, e := range res.of(trace.KindEndToEnd) {
		if e.Period >= 30 {
			completedLate++
		}
	}
	if completedLate != 10 {
		t.Errorf("late periods completed = %d of 10", completedLate)
	}
}

func TestReplicatedStageSurvivesCrash(t *testing.T) {
	// High workload → Filter replicated before the crash; losing one
	// replica must not take the pipeline down.
	cfg := faultCfg()
	res, err := Run(cfg, NonPredictive,
		[]TaskSetup{benchSetup(workload.NewConstant(9000, 40))})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Periods-m.Completed > 3 {
		t.Errorf("%d instances lost despite replication", m.Periods-m.Completed)
	}
}

func TestNoPlacementOnDeadNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = []Fault{{Node: 5, At: 2 * sim.Second}} // node 5 is idle spare; permanent crash
	res := runRecorded(t, cfg, Predictive, benchSetup(workload.NewIncreasingRamp(500, 12000, 60)))
	for _, e := range res.rec.Adaptations() {
		if e.Kind != trace.ActionReplicate {
			continue
		}
		for _, p := range e.Procs {
			if p == 5 && e.At > 2*sim.Second {
				t.Fatalf("replica placed on dead node at %v", e.At)
			}
		}
	}
	if res.Metrics.Replications == 0 {
		t.Error("ramp never triggered replication")
	}
}

func TestRecoveredNodeReused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = []Fault{{Node: 5, At: 2 * sim.Second, Duration: 10 * sim.Second}}
	res := runRecorded(t, cfg, NonPredictive, benchSetup(workload.NewIncreasingRamp(500, 14000, 60)))
	reused := false
	for _, e := range res.rec.Adaptations() {
		if e.Kind == trace.ActionReplicate && e.At > 12*sim.Second {
			for _, p := range e.Procs {
				if p == 5 {
					reused = true
				}
			}
		}
	}
	if !reused {
		t.Error("recovered node never received a replica")
	}
}

// Property: any bounded fault schedule leaves the system deterministic
// and sane — the run terminates, no panics, metrics within range, and
// at most the crashed periods are lost.
func TestPropertyChaosFaults(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 6 {
			raw = raw[:6]
		}
		cfg := DefaultConfig()
		for _, r := range raw {
			cfg.Faults = append(cfg.Faults, Fault{
				Node:     int(r) % cfg.NumNodes,
				At:       sim.Time(r%37) * sim.Second,
				Duration: sim.Time(r%11) * sim.Second,
			})
		}
		res, err := Run(cfg, Predictive,
			[]TaskSetup{benchSetup(workload.NewTriangular(500, 8000, 40, 1))})
		if err != nil {
			t.Log(err)
			return false
		}
		m := res.Metrics
		if m.MeanCPUUtil < 0 || m.MeanCPUUtil > 1 || m.MeanNetUtil < 0 || m.MeanNetUtil > 1 {
			return false
		}
		if m.Completed > m.Periods {
			return false
		}
		// With at most 6 transient crashes, the vast majority of the 40
		// instances must still complete.
		return m.Completed >= 25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
