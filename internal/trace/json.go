package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/metrics"
)

// PeriodJSON is the canonical JSON shape of one completed instance.
// Times are milliseconds as floats, the unit the paper reports in.
type PeriodJSON struct {
	Period    int         `json:"period"`
	Items     int         `json:"items"`
	LatencyMS float64     `json:"latency_ms"`
	Missed    bool        `json:"missed"`
	Stages    []StageJSON `json:"stages"`
}

// StageJSON is one stage's observation within a period.
type StageJSON struct {
	ExecMS   float64 `json:"exec_ms"`
	CommMS   float64 `json:"comm_ms"`
	Replicas int     `json:"replicas"`
}

// EventJSON is the canonical JSON shape of one adaptation action.
type EventJSON struct {
	AtMS   float64 `json:"at_ms"`
	Period int     `json:"period"`
	Task   string  `json:"task"`
	Stage  int     `json:"stage"`
	Kind   string  `json:"kind"`
	Procs  []int   `json:"procs,omitempty"`
}

// EventToJSON converts one adaptation action.
func EventToJSON(e *AdaptationEvent) EventJSON {
	return EventJSON{
		AtMS:   e.At.Milliseconds(),
		Period: e.Period,
		Task:   e.Task,
		Stage:  e.Stage,
		Kind:   string(e.Kind),
		Procs:  e.Procs,
	}
}

// SummaryJSON is the JSON shape of a run's aggregate metrics.
type SummaryJSON struct {
	Periods        int     `json:"periods"`
	Completed      int     `json:"completed"`
	Missed         int     `json:"missed"`
	MissedPct      float64 `json:"missed_pct"`
	CPUUtilPct     float64 `json:"cpu_util_pct"`
	NetUtilPct     float64 `json:"net_util_pct"`
	MeanReplicas   float64 `json:"mean_replicas"`
	ReplicaUsePct  float64 `json:"replica_use_pct"`
	Combined       float64 `json:"combined_metric"`
	Replications   int     `json:"replications"`
	Shutdowns      int     `json:"shutdowns"`
	AllocFailures  int     `json:"alloc_failures"`
	UnfinishedWork int     `json:"unfinished"`
}

// SummaryToJSON converts aggregate metrics.
func SummaryToJSON(m metrics.RunMetrics) SummaryJSON {
	return SummaryJSON{
		Periods:        m.Periods,
		Completed:      m.Completed,
		Missed:         m.Missed,
		MissedPct:      m.MissedPct(),
		CPUUtilPct:     m.CPUUtilPct(),
		NetUtilPct:     m.NetUtilPct(),
		MeanReplicas:   m.MeanReplicas,
		ReplicaUsePct:  m.ReplicaUsePct(),
		Combined:       m.Combined(),
		Replications:   m.Replications,
		Shutdowns:      m.Shutdowns,
		AllocFailures:  m.AllocFailures,
		UnfinishedWork: m.UnfinishedWork,
	}
}

// RunJSON is the JSON document of a whole run: its aggregate metrics,
// every completed period and every adaptation action.
type RunJSON struct {
	Summary SummaryJSON  `json:"summary"`
	Periods []PeriodJSON `json:"periods,omitempty"`
	Events  []EventJSON  `json:"events,omitempty"`
}

// RunToJSON converts a run's metrics and its recorded stream: one
// period per KindEndToEnd, with the KindStage events that precede it as
// its stages (the final stage's comm is 0), and one event per
// KindAdaptation. A stream without either leaves that part out.
func RunToJSON(m metrics.RunMetrics, events []Event) RunJSON {
	run := RunJSON{Summary: SummaryToJSON(m)}
	var stages []StageJSON
	for _, e := range events {
		switch e.Kind {
		case KindStage:
			stages = append(stages, StageJSON{
				ExecMS:   e.Latency.Milliseconds(),
				CommMS:   max(e.Comm, 0).Milliseconds(),
				Replicas: int(e.Value),
			})
		case KindEndToEnd:
			run.Periods = append(run.Periods, PeriodJSON{
				Period:    int(e.Period),
				Items:     int(e.Value),
				LatencyMS: e.Latency.Milliseconds(),
				Missed:    e.Missed,
				Stages:    stages,
			})
			stages = nil
		case KindAdaptation:
			run.Events = append(run.Events, EventToJSON(e.Action))
		}
	}
	return run
}

// WriteRunJSON writes a run document as indented JSON.
func WriteRunJSON(w io.Writer, run RunJSON) error { return writeIndented(w, run) }

func writeIndented(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("trace: write json: %w", err)
	}
	return nil
}
