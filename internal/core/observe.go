package core

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Observer samples the live state of a running simulation every Every
// sim-time units. It is the substrate of rmserved's session mode: the
// session layer turns each Observation into a wire snapshot/diff and
// fans it out to SSE subscribers.
//
// The hook is deliberately NOT a Config field. Config is what shapes a
// run's result and therefore what the content-addressed fingerprint
// hashes; an observer watches a run without shaping it, so it rides the
// RunObservedContext entry point instead and can never split the run
// cache or perturb a golden. Runs without an observer take code paths
// byte-identical to the pre-observer build.
type Observer struct {
	// Every is the sampling cadence in sim time; must be > 0. Samples
	// fire from t=Every up to the workload pattern horizon, plus one
	// final observation after the engine drains.
	Every sim.Time
	// OnSample receives each observation on the simulation goroutine.
	// It may block (the session layer uses this for wall-clock pacing
	// and pause), but must not call back into the engine or mutate
	// anything the run reads — the capture hands it copies only.
	OnSample func(Observation)
}

func (o *Observer) validate() error {
	if o == nil {
		return fmt.Errorf("core: nil observer")
	}
	if o.Every <= 0 {
		return fmt.Errorf("core: observer cadence must be > 0 (got %v)", o.Every)
	}
	if o.OnSample == nil {
		return fmt.Errorf("core: observer has no OnSample callback")
	}
	return nil
}

// Observation is one sampled view of the simulated system. All slices
// are freshly allocated per sample: the callback may retain them.
type Observation struct {
	// At is the sim time of the sample.
	At sim.Time
	// Final marks the post-drain observation: the run is complete and
	// Metrics equals the returned Result.Metrics exactly.
	Final bool
	// Nodes holds per-node state, indexed by node id.
	Nodes []NodeObservation
	// Tasks holds per-task state in setup order.
	Tasks []TaskObservation
	// Metrics is the interim run summary (the collector folded down as
	// of this sample; counters only grow between samples).
	Metrics metrics.RunMetrics
}

// NodeObservation is one node's sampled state.
type NodeObservation struct {
	// Util is the node's total utilization over the task set's most
	// recent monitoring window (the same raw quantity the repair and
	// threshold logic read), in [0,1].
	Util float64
	// Down reports whether the node is currently crashed.
	Down bool
}

// TaskObservation is one runtime task's sampled state.
type TaskObservation struct {
	Name string
	// Stages holds the replica placements per pipeline stage: Stages[i]
	// is the node set hosting subtask i.
	Stages [][]int
	// Completed and Missed count this task's finished instances so far;
	// InFlight the instances currently executing.
	Completed int
	Missed    int
	InFlight  int
}

// RunObserved is RunObservedContext with a background context.
func RunObserved(cfg Config, alg Algorithm, setups []TaskSetup, obs *Observer) (Result, error) {
	return RunObservedContext(context.Background(), cfg, alg, setups, obs)
}

// RunObservedContext runs one simulation with a live observation hook:
// obs.OnSample fires every obs.Every sim-time units and once more after
// the engine drains (Final set). Results are identical to RunContext
// with the same inputs — sampling reads state, it never writes it.
// Lane-partitioned runs (cfg.Lanes ≥ 2) are not observable: state is
// sharded across engines mid-run, so there is no coherent instant to
// sample.
func RunObservedContext(ctx context.Context, cfg Config, alg Algorithm, setups []TaskSetup, obs *Observer) (Result, error) {
	if err := obs.validate(); err != nil {
		return Result{}, err
	}
	if cfg.Lanes >= 2 {
		return Result{}, fmt.Errorf("core: observed runs do not support lane partitioning (Lanes=%d)", cfg.Lanes)
	}
	return runContext(ctx, cfg, alg, setups, obs)
}

// scheduleObservations schedules one sample every obs.Every up to the
// pattern horizon as a single periodic source. Its occurrence count is
// fixed up front (rather than self-rescheduling open-endedly), so the
// engine still drains to quiescence once the workload ends; and because
// this runs after the rest of construction, the sequence numbers it
// reserves all follow the unobserved build's, so the simulation's event
// order is unchanged.
func (s *system) scheduleObservations(obs *Observer, horizon sim.Time) {
	s.eng.SchedulePeriodic(obs.Every, obs.Every, int(horizon/obs.Every),
		func(int) { obs.OnSample(s.captureObservation()) })
}

// captureObservation copies the live state into a fresh Observation.
// Read-only with respect to the run: meters are not advanced (node
// utilization comes from the anchor task's last monitoring window) and
// the collector fold is pure.
func (s *system) captureObservation() Observation {
	o := Observation{
		At:      s.eng.Now(),
		Nodes:   make([]NodeObservation, len(s.procs)),
		Tasks:   make([]TaskObservation, len(s.tasks)),
		Metrics: s.collector.Finish(),
	}
	rt0 := s.tasks[0]
	for i := range s.procs {
		o.Nodes[i] = NodeObservation{Util: rt0.rawSnapshot[i], Down: s.down[i]}
	}
	for ti, rt := range s.tasks {
		stages := make([][]int, len(rt.setup.Spec.Subtasks))
		for st := range stages {
			stages[st] = rt.dep.AppendReplicas(st, nil)
		}
		o.Tasks[ti] = TaskObservation{
			Name:      rt.setup.Spec.Name,
			Stages:    stages,
			Completed: rt.completed,
			Missed:    rt.missed,
			InFlight:  rt.inFlight,
		}
	}
	return o
}
