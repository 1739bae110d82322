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
	"repro/internal/trace"
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

// resultFingerprint serializes everything a run exposes, byte for byte:
// the Result (metrics and run counters) and every event of the merged
// observation stream, adaptation actions included.
func resultFingerprint(res recorded) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", res.Result)
	for _, e := range res.rec.Events {
		a := e.Action
		e.Action = nil
		fmt.Fprintf(&b, "%+v", e)
		if a != nil {
			fmt.Fprintf(&b, " %+v", *a)
		}
		b.WriteByte('\n')
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
					serial := runRecorded(t, laneTestConfig(lanes, 1, chaosOn), alg, setups...)
					parallel := runRecorded(t, laneTestConfig(lanes, lanes, chaosOn), alg, setups...)
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
	ra := runRecorded(t, cfg, Predictive, a...)
	rb := runRecorded(t, cfg, Predictive, b...)
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
	sampling := testSink{every: sim.Second, emit: func(trace.Event) {}}
	if _, err := RunObservedContext(context.Background(), cfg, Predictive, setups, sampling); err == nil {
		t.Error("no error for a sampling sink with lanes")
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
		res := runRecorded(t, cfg, Predictive, laneTestSetups(2*maxInt(lanes, 1))...)
		var downs []string
		for _, e := range res.rec.Adaptations() {
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

// TestLaneStreamMerged: an observed lane run delivers one stream in time
// order whose node ids are global (each task's spans and actions stay
// in its lane's node block, and an action's node Value is its last
// node), carrying every completion and replication the metrics count.
// A non-sampling consumer such as the telemetry recorder takes it whole.
func TestLaneStreamMerged(t *testing.T) {
	const lanes, laneSize = 4, 12
	cfg := laneTestConfig(lanes, 0, false)
	cfg.Faults = []Fault{{Node: 14, At: 5 * sim.Second, Duration: 5 * sim.Second}, {Node: 38, At: 8 * sim.Second}}
	setups := make([]TaskSetup, 2*lanes)
	for i := range setups {
		setups[i] = laneBenchSetup(i, workload.NewTriangular(500, 9000, 20, 1))
	}
	res := runRecorded(t, cfg, Predictive, setups...)
	laneOfTask := map[string]int{}
	for i, s := range setups {
		laneOfTask[s.Spec.Name] = i % lanes
	}
	inLane := func(e trace.Event, node int) {
		if l := laneOfTask[e.Task]; node < l*laneSize || node >= (l+1)*laneSize {
			t.Errorf("kind %d event of task %s (lane %d) names node %d", e.Kind, e.Task, l, node)
		}
	}
	var completions, replicas int64
	for i, e := range res.rec.Events {
		if i > 0 && e.At < res.rec.Events[i-1].At {
			t.Fatalf("event %d at %v precedes its predecessor at %v", i, e.At, res.rec.Events[i-1].At)
		}
		switch e.Kind {
		case trace.KindExec:
			inLane(e, int(e.Proc))
		case trace.KindMessage:
			inLane(e, int(e.Proc))
			inLane(e, int(e.From))
		case trace.KindEndToEnd:
			completions++
		case trace.KindAdaptation:
			a := e.Action
			if e.Task != "-" {
				for _, p := range a.Procs {
					inLane(e, p)
				}
			}
			switch a.Kind {
			case trace.ActionReplicate:
				replicas += e.Value
			case trace.ActionNodeDown, trace.ActionNodeUp, trace.ActionFailover, trace.ActionShutdown:
				if e.Value != int64(a.Procs[len(a.Procs)-1]) {
					t.Errorf("%s names node %d, its nodes are %v", a.Kind, e.Value, a.Procs)
				}
			}
		}
	}
	if completions != int64(res.Metrics.Completed) || replicas != int64(res.Metrics.Replications) {
		t.Errorf("stream carried %d completions and %d replicas; metrics count %d and %d",
			completions, replicas, res.Metrics.Completed, res.Metrics.Replications)
	}
	if res.Metrics.Crashes == 0 || replicas == 0 {
		t.Fatalf("degenerate run: no crashes or no replication to check: %+v", res.Metrics)
	}

	rec := telemetry.New()
	if _, err := RunObservedContext(context.Background(), cfg, Predictive, setups, rec); err != nil {
		t.Fatal(err)
	}
	var instances uint64
	for _, tk := range rec.Snapshot().Tasks {
		instances += tk.Instances
	}
	if instances != uint64(completions) {
		t.Errorf("telemetry counted %d instances, the stream %d", instances, completions)
	}
}
