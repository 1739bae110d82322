package trace

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Kind classifies an Event on the observation stream.
type Kind uint8

// Event kinds. Each names the Event fields it sets beyond Task, Stage
// and Period, which place the task-scoped kinds; the rest stay zero.
const (
	// KindExec is one replica's CPU job of a stage: Start = submitted,
	// Mid = first dispatch, At = completed; Proc runs it, Value counts
	// the items it processed.
	KindExec Kind = iota
	// KindJobWait is one completed job on node Proc, for every job a
	// node serves: Start = submitted, Mid = first dispatch, At =
	// completed.
	KindJobWait
	// KindMessage is one delivered inter-stage handoff to Stage: Start =
	// enqueued, Mid = transmission start, At = delivered; From and Proc
	// are the source and destination nodes, Value the payload bytes.
	KindMessage
	// KindStage is one stage of a completed instance: Latency is its
	// execution latency against the EQF sub-deadline Deadline, Comm the
	// delay of its outgoing message (negative on the final stage), and
	// Value the replicas that ran it. The instance's KindEndToEnd
	// follows its last stage.
	KindStage
	// KindEndToEnd is one completed instance: Latency is release to
	// completion against the task deadline Deadline, Value the items it
	// processed.
	KindEndToEnd
	// KindAdaptation is one resource-management action (Action), with
	// its magnitude in Value: replicas added, items shed, or the node
	// acted on.
	KindAdaptation
	// KindDrop is one segment message lost to drop or partition.
	KindDrop
	// KindRetransmit is one handoff resent after its delivery timeout.
	KindRetransmit
	// KindForecastEval is one Figure 5 forecast evaluation for Stage.
	KindForecastEval
	// KindForecast is the eq. (3)/(5) forecast for one stage of a period
	// at launch: Latency is the execution forecast, Comm the
	// communication forecast (negative on the final stage). KindStage
	// carries the matching observation.
	KindForecast
	// KindProcUtil is node Proc's utilization Util over the last window.
	KindProcUtil
	// KindNetUtil is the segment's utilization Util over the last window.
	KindNetUtil
	// KindSample is a state sample (Sample) at the consumer's cadence.
	KindSample
)

// Event is one observation out of a running simulation, stamped with
// the sim time At. It is a fixed-size value: the hot path builds it on
// the stack and hands it to the run's sink (core.Sink).
type Event struct {
	Kind   Kind
	Missed bool // KindEndToEnd: the instance missed its deadline
	Stage  int32
	Period int32
	Proc   int32
	From   int32
	At     sim.Time
	Task   string

	Start, Mid              sim.Time
	Latency, Comm, Deadline sim.Time
	Value                   int64
	Util                    float64
	Action                  *AdaptationEvent // KindAdaptation only
	Sample                  *Sample          // KindSample only
}

// Sample is one view of the simulated system. Its slices are freshly
// allocated per sample, so a consumer may retain them.
type Sample struct {
	// Final marks the post-drain sample: Metrics equals the run result's.
	Final bool
	// Nodes holds per-node state, indexed by node id.
	Nodes []NodeSample
	// Tasks holds per-task state in setup order.
	Tasks []TaskSample
	// Metrics is the interim run summary as of the sample.
	Metrics metrics.RunMetrics
}

// NodeSample is one node's sampled state.
type NodeSample struct {
	// Util is the node's total utilization over the most recent
	// monitoring window, in [0,1].
	Util float64
	// Down reports whether the node is crashed.
	Down bool
}

// TaskSample is one task's sampled state.
type TaskSample struct {
	Name string
	// Stages[i] is the node set hosting subtask i.
	Stages [][]int
	// Completed and Missed count finished instances so far; InFlight
	// the instances executing.
	Completed int
	Missed    int
	InFlight  int
}
