package core

import (
	"repro/internal/metrics"
)

// Result is the outcome of one simulated run. What the run did period
// by period is not kept here: it is the observation stream, which a
// sink (RunObservedContext) receives and may record (trace.Recording).
type Result struct {
	// Metrics aggregates the §5.2 evaluation quantities.
	Metrics metrics.RunMetrics
	// EventsFired is the total number of engine events the run executed.
	// Two runs of the same configuration must report the same count — a
	// cheap determinism fingerprint alongside the metrics.
	EventsFired uint64
	// Failovers counts the fail-over actions the manager took: replicas
	// dropped from, or relocated off, crashed nodes.
	Failovers int
}
