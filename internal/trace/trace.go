// Package trace describes what an adaptive run did: the adaptation
// actions and period records a run returns, their CSV and JSON forms,
// and the typed observation stream (Event, Sink) a run emits while it
// executes.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/task"
)

// ActionKind labels an adaptation event.
type ActionKind string

// Adaptation actions.
const (
	ActionReplicate    ActionKind = "replicate"
	ActionShutdown     ActionKind = "shutdown"
	ActionAllocFailure ActionKind = "alloc-failure"
	ActionNodeDown     ActionKind = "node-down"
	ActionNodeUp       ActionKind = "node-up"
	ActionFailover     ActionKind = "failover"
	// ActionStretch marks a period launch skipped by the period-stretch
	// policy; ActionShed marks optional items dropped by imprecise-shed.
	ActionStretch ActionKind = "stretch-skip"
	ActionShed    ActionKind = "shed"
)

// AdaptationEvent is one resource-management action.
type AdaptationEvent struct {
	At     sim.Time
	Period int
	Task   string
	Stage  int
	Kind   ActionKind
	// Procs lists processors added (replicate) or removed (shutdown).
	Procs []int
}

func (e AdaptationEvent) String() string {
	return fmt.Sprintf("t=%v period=%d task=%s stage=%d %s procs=%v",
		e.At, e.Period, e.Task, e.Stage, e.Kind, e.Procs)
}

// WriteRecordsCSV emits one row per completed period.
func WriteRecordsCSV(w io.Writer, records []*task.PeriodRecord) error {
	if _, err := fmt.Fprintln(w, "period,items,released_ms,completed_ms,latency_ms,missed"); err != nil {
		return err
	}
	for _, r := range records {
		_, err := fmt.Fprintf(w, "%d,%d,%.3f,%.3f,%.3f,%t\n",
			r.Period, r.Items,
			r.ReleasedAt.Milliseconds(), r.CompletedAt.Milliseconds(),
			r.EndToEnd().Milliseconds(), r.Missed())
		if err != nil {
			return err
		}
	}
	return nil
}
