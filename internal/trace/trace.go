// Package trace describes what an adaptive run did. A run's one record
// is its typed observation stream: every span, completion, forecast,
// adaptation action and utilization reading, as an Event handed to the
// run's sink (core.Sink) while it executes. Recording is the sink that
// keeps the stream; the CSV and JSON writers render a recorded stream's
// completed periods and adaptation actions.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
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

// AdaptationEvent is one resource-management action, as carried by a
// KindAdaptation Event.
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

// Recording is a sink (core.Sink) that keeps every event of a run, in
// emission order. It takes no state samples.
type Recording struct {
	Events []Event
}

// Emit appends e to the recording.
func (r *Recording) Emit(e Event) { r.Events = append(r.Events, e) }

// SampleEvery is 0: a recording asks for no state samples.
func (r *Recording) SampleEvery() sim.Time { return 0 }

// Adaptations returns the recorded adaptation actions in action order.
func (r *Recording) Adaptations() []*AdaptationEvent {
	var out []*AdaptationEvent
	for _, e := range r.Events {
		if e.Kind == KindAdaptation {
			out = append(out, e.Action)
		}
	}
	return out
}

// WriteRecordsCSV emits one row per completed period (KindEndToEnd) of
// a recorded stream.
func WriteRecordsCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "period,items,released_ms,completed_ms,latency_ms,missed"); err != nil {
		return err
	}
	for _, e := range events {
		if e.Kind != KindEndToEnd {
			continue
		}
		_, err := fmt.Fprintf(w, "%d,%d,%.3f,%.3f,%.3f,%t\n",
			e.Period, e.Value,
			(e.At - e.Latency).Milliseconds(), e.At.Milliseconds(),
			e.Latency.Milliseconds(), e.Missed)
		if err != nil {
			return err
		}
	}
	return nil
}
