package core

import (
	"repro/internal/metrics"
	"repro/internal/task"
	"repro/internal/trace"
)

// Result is the outcome of one simulated run.
type Result struct {
	// Metrics aggregates the §5.2 evaluation quantities.
	Metrics metrics.RunMetrics
	// Records holds every completed period record, in completion order.
	Records []*task.PeriodRecord
	// Events holds every adaptation action taken.
	Events []trace.AdaptationEvent
	// EventsFired is the total number of engine events the run executed.
	// Two runs of the same configuration must report the same count — a
	// cheap determinism fingerprint alongside the full trace.
	EventsFired uint64
}
