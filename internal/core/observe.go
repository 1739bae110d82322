package core

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Sink consumes the observation stream of one run. Emit runs on the
// simulation goroutine; it may block (a live session paces and pauses
// the run this way) but must not call back into the run.
type Sink interface {
	Emit(trace.Event)
	// SampleEvery is the sim-time cadence of trace.KindSample events the
	// consumer wants, or 0 for none. Samples fire from SampleEvery to the
	// workload horizon, plus one Final sample after the run drains.
	SampleEvery() sim.Time
}

// RunObservedContext is RunContext with an observation stream: every
// span, latency, forecast, adaptation and utilization reading of the
// run goes to sink as a trace.Event, plus state samples at the cadence
// sink.SampleEvery asks for. Results are identical to RunContext with
// the same inputs — emitting reads state, it never writes it — and a
// nil sink is RunContext.
//
// The sink is deliberately not a Config field. Config is what shapes a
// run's result and therefore what the content-addressed fingerprint
// hashes; a sink watches a run without shaping it, so it rides this
// entry point instead and can never split the run cache or perturb a
// golden. Lane-partitioned runs (cfg.Lanes ≥ 2) refuse a sink: state is
// sharded across engines, so there is no single ordered stream.
func RunObservedContext(ctx context.Context, cfg Config, alg Algorithm, setups []TaskSetup, sink Sink) (Result, error) {
	if sink != nil && sink.SampleEvery() < 0 {
		return Result{}, fmt.Errorf("core: negative sample cadence %v", sink.SampleEvery())
	}
	return runContext(ctx, cfg, alg, setups, sink)
}

// scheduleSamples schedules one state sample every `every` up to the
// pattern horizon as a single periodic source. Its occurrence count is
// fixed up front (rather than self-rescheduling open-endedly), so the
// engine still drains to quiescence once the workload ends; and because
// this runs after the rest of construction, the sequence numbers it
// reserves all follow the unobserved build's, so the simulation's event
// order is unchanged. A sample may block in the sink; when ctx is done
// by the time it returns, the engine stops before its next event.
func (s *system) scheduleSamples(ctx context.Context, every, horizon sim.Time) {
	s.eng.SchedulePeriodic(every, every, int(horizon/every), func(int) {
		s.sink.Emit(trace.Event{Kind: trace.KindSample, At: s.eng.Now(), Sample: s.captureSample()})
		if ctx.Err() != nil {
			s.eng.Stop()
		}
	})
}

// captureSample copies the live state into a fresh Sample. Read-only
// with respect to the run: meters are not advanced (node utilization
// comes from the anchor task's last monitoring window) and the
// collector fold is pure.
func (s *system) captureSample() *trace.Sample {
	o := &trace.Sample{
		Nodes:   make([]trace.NodeSample, len(s.procs)),
		Tasks:   make([]trace.TaskSample, len(s.tasks)),
		Metrics: s.collector.Finish(),
	}
	rt0 := s.tasks[0]
	for i := range s.procs {
		o.Nodes[i] = trace.NodeSample{Util: rt0.rawSnapshot[i], Down: s.down[i]}
	}
	for ti, rt := range s.tasks {
		stages := make([][]int, len(rt.setup.Spec.Subtasks))
		for st := range stages {
			stages[st] = rt.dep.AppendReplicas(st, nil)
		}
		o.Tasks[ti] = trace.TaskSample{
			Name:      rt.setup.Spec.Name,
			Stages:    stages,
			Completed: rt.completed,
			Missed:    rt.missed,
			InFlight:  rt.inFlight,
		}
	}
	return o
}

// adaptation emits one adaptation action on the stream: its kind, the
// period, task and stage it acted on, its magnitude value (replicas
// added, items shed, or the node acted on) and the nodes involved. An
// unobserved run builds nothing.
func (s *system) adaptation(kind trace.ActionKind, c int, task string, stage int, value int64, procs ...int) {
	if s.sink == nil {
		return
	}
	e := &trace.AdaptationEvent{At: s.eng.Now(), Period: c, Task: task, Stage: stage, Kind: kind,
		Procs: append([]int(nil), procs...)}
	s.sink.Emit(trace.Event{Kind: trace.KindAdaptation, At: e.At, Task: task,
		Stage: int32(stage), Period: int32(c), Action: e, Value: value})
}
