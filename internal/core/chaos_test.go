package core

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// chaosTestCfg is a run under stochastic crashes, a lossy segment, and
// the hardened manager — the full ext-chaos stack at a test-sized dose.
func chaosTestCfg(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Chaos = chaos.Config{NodeMTBF: 20 * sim.Second, NodeMTTR: 3 * sim.Second, MaxDown: 2}
	cfg.Network.DropProb = 0.02
	cfg.Degradation = HardenedDegradation()
	return cfg
}

// TestChaosRunDeterministicPerSeed pins the chaos layer's core contract:
// the crash schedule, the message-loss stream, and every retransmission
// are pure functions of the config seed.
func TestChaosRunDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) recorded {
		return runRecorded(t, chaosTestCfg(seed), Predictive, benchSetup(workload.NewTriangular(500, 8000, 40, 1)))
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("same seed, different metrics:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.rec.Events, b.rec.Events) {
		t.Errorf("same seed, different streams: %d vs %d events", len(a.rec.Events), len(b.rec.Events))
	}
	if a.Metrics.Crashes == 0 {
		t.Error("20s MTBF over a 40s run produced no crashes — chaos schedule not wired in")
	}
	if c := run(8); reflect.DeepEqual(a.Metrics, c.Metrics) {
		t.Error("different seeds produced identical metrics — seed not reaching the chaos layer")
	}
}

// TestRetransmitRecoversDroppedHandoffs: on a 10%-lossy segment a lost
// inter-subtask handoff silently stalls its instance forever unless the
// delivery watchdog resends it. The hardened config must turn most of
// those losses back into completed periods.
func TestRetransmitRecoversDroppedHandoffs(t *testing.T) {
	base := DefaultConfig()
	base.Network.DropProb = 0.10
	setup := func() []TaskSetup {
		return []TaskSetup{benchSetup(workload.NewConstant(5000, 40))}
	}

	bare, err := Run(base, Predictive, setup())
	if err != nil {
		t.Fatal(err)
	}
	hardened := base
	hardened.Degradation = HardenedDegradation()
	hard, err := Run(hardened, Predictive, setup())
	if err != nil {
		t.Fatal(err)
	}

	if bare.Metrics.DroppedMessages == 0 || hard.Metrics.DroppedMessages == 0 {
		t.Fatalf("10%% drop rate produced no drops (bare=%d hard=%d)",
			bare.Metrics.DroppedMessages, hard.Metrics.DroppedMessages)
	}
	if bare.Metrics.Retransmissions != 0 {
		t.Errorf("retransmissions without a delivery timeout: %d", bare.Metrics.Retransmissions)
	}
	if hard.Metrics.Retransmissions == 0 {
		t.Error("hardened run never retransmitted despite drops")
	}
	// Every drop without the watchdog loses a period; with it, nearly all
	// handoffs eventually land.
	if bare.Metrics.Completed >= bare.Metrics.Periods {
		t.Error("bare lossy run lost nothing — drops are not reaching task handoffs")
	}
	if hard.Metrics.Completed <= bare.Metrics.Completed {
		t.Errorf("retransmission did not help: hardened completed %d ≤ bare %d",
			hard.Metrics.Completed, bare.Metrics.Completed)
	}
	if lost := hard.Metrics.Periods - hard.Metrics.Completed; lost > 4 {
		t.Errorf("hardened run still lost %d of %d periods", lost, hard.Metrics.Periods)
	}
}

// TestCrashOfNewestReplicaFailsOver crashes the node hosting the most
// recently added replica of a replicated stage (satellite: the
// repairPlacements removal path). The dead replica must be dropped via an
// ActionFailover removal — not relocated — and the surviving replicas
// must keep the pipeline alive.
func TestCrashOfNewestReplicaFailsOver(t *testing.T) {
	pattern := func() workload.Pattern { return workload.NewConstant(9000, 40) }

	// Phase 1 (clean run): find where and when the first replica lands.
	clean := runRecorded(t, DefaultConfig(), Predictive, benchSetup(pattern()))
	victim, stage := -1, -1
	var at sim.Time
	for _, e := range clean.rec.Adaptations() {
		if e.Kind == trace.ActionReplicate && len(e.Procs) > 0 {
			victim, stage, at = e.Procs[len(e.Procs)-1], e.Stage, e.At
			break
		}
	}
	if victim == -1 {
		t.Fatal("high constant workload never replicated — cannot stage the scenario")
	}

	// Phase 2: same run, but the newest replica's node dies two periods
	// after it was added and stays down.
	cfg := DefaultConfig()
	cfg.Faults = []Fault{{Node: victim, At: at + 2*sim.Second}}
	res := runRecorded(t, cfg, Predictive, benchSetup(pattern()))
	removed := false
	for _, e := range res.rec.Adaptations() {
		if e.Kind == trace.ActionFailover && e.Stage == stage &&
			len(e.Procs) == 1 && e.Procs[0] == victim {
			removed = true
		}
	}
	if !removed {
		t.Errorf("no fail-over removal of node %d (stage %d) found", victim, stage)
	}
	if lost := res.Metrics.Periods - res.Metrics.Completed; lost > 3 {
		t.Errorf("%d periods lost despite surviving replicas", lost)
	}
}

// TestMidPeriodRecoveryDoesNotResurrectWork crashes the Filter home node
// mid-period and recovers it 400 ms later, within the same period. The
// in-flight instance's work is gone for good: its period never completes,
// no period completes twice, and the pipeline resumes on the recovered
// node without a relocation.
func TestMidPeriodRecoveryDoesNotResurrectWork(t *testing.T) {
	cfg := faultCfg()
	cfg.Faults[0].Duration = 400 * sim.Millisecond // recover at 10.6 s, mid-period 10
	res := runRecorded(t, cfg, Predictive, benchSetup(workload.NewConstant(5000, 40)))
	seen := map[int]int{}
	for _, e := range res.of(trace.KindEndToEnd) {
		seen[int(e.Period)]++
	}
	for p, n := range seen {
		if n > 1 {
			t.Errorf("period %d completed %d times — lost work resurrected", p, n)
		}
	}
	if seen[10] != 0 {
		t.Error("period 10 completed despite its Filter work dying in the crash")
	}
	for p := 12; p < 40; p++ {
		if seen[p] == 0 {
			t.Errorf("period %d never completed after the node recovered", p)
		}
	}
	if res.Metrics.Crashes != 1 || res.Metrics.Recoveries != 1 {
		t.Errorf("crashes=%d recoveries=%d, want 1 each",
			res.Metrics.Crashes, res.Metrics.Recoveries)
	}
	if res.Metrics.MeanRecoveryMS <= 0 {
		t.Error("recovery latency not observed")
	}
}
