package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dynbench"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// laneBenchSetup is benchSetup with a distinct task name and pattern per
// index, so lane partitions carry differentiated workloads.
func laneBenchSetup(i int, pattern workload.Pattern) TaskSetup {
	dcfg := dynbench.DefaultConfig()
	dcfg.Name = fmt.Sprintf("AAW%d", i)
	spec := dynbench.NewTask(dcfg)
	exec := make([]regress.ExecModel, len(spec.Subtasks))
	for j := range exec {
		exec[j] = dynbench.GroundTruthExec(j)
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

// lanePattern varies the workload shape by task index so different lanes
// adapt differently.
func lanePattern(i int) workload.Pattern {
	switch i % 3 {
	case 0:
		return workload.NewStep(500, 6000, 6, 3)
	case 1:
		return workload.NewTriangular(500, 5000, 6, 2)
	default:
		return workload.NewConstant(2500, 6)
	}
}

// resultFingerprint serializes everything a Result exposes, byte for
// byte: metrics, every period record (including stage observations),
// every adaptation event, and the run counters.
func resultFingerprint(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics=%+v\nfired=%d\n", res.Metrics, res.EventsFired)
	for _, r := range res.Records {
		fmt.Fprintf(&b, "rec %d %d %d %d %d %+v\n", r.Period, r.Items, r.ReleasedAt, r.CompletedAt, r.Deadline, r.Stages)
	}
	for _, e := range res.Events {
		fmt.Fprintf(&b, "ev %d %s\n", e.At, e.String())
	}
	return b.String()
}

// laneTestConfig builds a lane-partitioned config on 48 nodes (so 1, 2,
// 4 and 8 lanes all divide evenly, each lane no smaller than the Table 1
// cluster) with optional chaos.
func laneTestConfig(lanes, parallel int, chaosOn bool) Config {
	cfg := DefaultConfig()
	cfg.NumNodes = 48
	cfg.Lanes = lanes
	cfg.Parallel = parallel
	if chaosOn {
		cfg.Chaos.NodeMTBF = 2 * sim.Second
		cfg.Chaos.NodeMTTR = 300 * sim.Millisecond
		cfg.Chaos.MaxDown = 8
		cfg.Chaos.PartitionMTBF = 3 * sim.Second
		cfg.Chaos.PartitionMTTR = 100 * sim.Millisecond
		cfg.Network.DropProb = 0.01
		cfg.Degradation = HardenedDegradation()
	}
	return cfg
}

func laneTestSetups(n int) []TaskSetup {
	setups := make([]TaskSetup, n)
	for i := range setups {
		setups[i] = laneBenchSetup(i, lanePattern(i))
	}
	return setups
}

// TestLaneSerialParallelByteIdentical is the tentpole guarantee: for
// every registered policy, every lane count and chaos on/off, the
// parallel worker-pool driver must produce a Result byte-identical to
// the serial (Parallel=1) driver.
func TestLaneSerialParallelByteIdentical(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, lanes := range []int{1, 2, 4, 8} {
			for _, chaosOn := range []bool{false, true} {
				alg, lanes, chaosOn := alg, lanes, chaosOn
				t.Run(fmt.Sprintf("%s/lanes=%d/chaos=%v", alg, lanes, chaosOn), func(t *testing.T) {
					t.Parallel()
					setups := laneTestSetups(2 * maxInt(lanes, 1))
					serial, err := Run(laneTestConfig(lanes, 1, chaosOn), alg, setups)
					if err != nil {
						t.Fatal(err)
					}
					parallel, err := Run(laneTestConfig(lanes, lanes, chaosOn), alg, setups)
					if err != nil {
						t.Fatal(err)
					}
					sf, pf := resultFingerprint(serial), resultFingerprint(parallel)
					if sf != pf {
						sh, ph := head(sf, pf)
						t.Fatalf("serial and parallel results diverge:\nserial:\n%s\nparallel:\n%s", sh, ph)
					}
					if serial.Metrics.Completed == 0 {
						t.Fatal("degenerate run: nothing completed")
					}
				})
			}
		}
	}
}

// head trims two diverging fingerprints to the first differing region,
// so failures are readable.
func head(a, b string) (string, string) {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	end := func(s string) int {
		if len(s) < i+200 {
			return len(s)
		}
		return i + 200
	}
	return a[lo:end(a)], b[lo:end(b)]
}

func laneTestConfigDefaultChaos(lanes, parallel int) Config {
	return laneTestConfig(lanes, parallel, false)
}

// TestLaneGlobalWorkloadPropagates: the cross-lane Σ-items reports must
// reach the allocators — a lane-partitioned run must see more total
// workload than an identical single-lane system of the same size run in
// isolation would (observable indirectly: remote items arrive, so the
// run is not equivalent to zeroed uplinks). Here we just assert the
// plumbing end to end: results differ when the *other* lanes' workload
// changes and nothing else does.
func TestLaneGlobalWorkloadPropagates(t *testing.T) {
	cfg := laneTestConfigDefaultChaos(2, 1)
	a := laneTestSetups(4)
	b := laneTestSetups(4)
	// Fatten lane 1's tasks (indices 1 and 3) only.
	b[1].Pattern = workload.NewConstant(9000, 6)
	b[3].Pattern = workload.NewConstant(9000, 6)
	ra, err := Run(cfg, Predictive, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(cfg, Predictive, b)
	if err != nil {
		t.Fatal(err)
	}
	// Lane 0's tasks are identical in both runs; if its records still
	// match exactly, the uplink reports never reached lane 0's manager.
	fa, fb := resultFingerprint(ra), resultFingerprint(rb)
	if fa == fb {
		t.Fatal("changing the remote lane's workload left the run untouched: uplink reports are not flowing")
	}
}

func TestLaneConfigErrors(t *testing.T) {
	setups := laneTestSetups(4)

	cfg := laneTestConfigDefaultChaos(5, 0) // 48 % 5 != 0
	if _, err := Run(cfg, Predictive, setups); err == nil {
		t.Error("no error for non-dividing lane count")
	}

	cfg = laneTestConfigDefaultChaos(2, 0)
	if _, err := RunObservedContext(context.Background(), cfg, Predictive, setups, telemetry.New()); err == nil {
		t.Error("no error for a sink with lanes")
	}

	cfg = laneTestConfigDefaultChaos(2, 0)
	spanning := laneTestSetups(4)
	spanning[0].Homes = []int{0, 24, 1, 2, 3} // crosses the lane boundary
	if _, err := Run(cfg, Predictive, spanning); err == nil {
		t.Error("no error for homes spanning lanes")
	}

	cfg = laneTestConfigDefaultChaos(4, 0)
	if _, err := Run(cfg, Predictive, laneTestSetups(2)); err == nil {
		t.Error("no error for a lane without tasks")
	}

	cfg = laneTestConfigDefaultChaos(2, -1)
	if _, err := Run(cfg, Predictive, setups); err == nil {
		t.Error("no error for negative Parallel")
	}
}

// TestLaneFaultsAreNodeKeyed: the same chaos seed must crash the same
// global nodes at the same times regardless of the lane count — fault
// streams are keyed by node, not draw order.
func TestLaneFaultsAreNodeKeyed(t *testing.T) {
	collect := func(lanes int) []string {
		cfg := laneTestConfig(lanes, 1, true)
		cfg.Network.DropProb = 0 // isolate node faults
		cfg.Chaos.PartitionMTBF, cfg.Chaos.PartitionMTTR = 0, 0
		res, err := Run(cfg, Predictive, laneTestSetups(2*maxInt(lanes, 1)))
		if err != nil {
			t.Fatal(err)
		}
		var downs []string
		for _, e := range res.Events {
			if e.Kind == "node-down" {
				downs = append(downs, fmt.Sprintf("%d@%d", e.Procs[0], e.At))
			}
		}
		return downs
	}
	base := collect(1)
	if len(base) == 0 {
		t.Fatal("chaos produced no crashes; tighten MTBF")
	}
	for _, lanes := range []int{2, 4, 8} {
		got := collect(lanes)
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Errorf("lanes=%d crash schedule %v, want %v (node-keyed streams)", lanes, got, base)
		}
	}
}
