// Package api defines the versioned public wire schema of the rmserved
// simulation service: JSON request/response DTOs shared by the HTTP
// daemon (internal/server), the Go client (internal/client), and the
// rmexperiments -remote mode. The DTOs deliberately mirror — rather than
// embed — the internal structs (core.Config, metrics.RunMetrics,
// experiment.RunOutcome), so the wire format and the engine can evolve
// independently: every message carries an explicit schema_version, and
// the golden fixtures under testdata/ pin the encoding byte for byte.
//
// Versioning policy (see DESIGN.md §6): additive changes — new optional
// fields with zero-value-off semantics — keep SchemaVersion; anything
// that changes the meaning of an existing field bumps it, and the server
// rejects mismatched requests instead of guessing.
package api

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/policy"
)

// SchemaVersion is the current wire schema. Requests must carry it
// verbatim; responses echo it. Version 2 made job SSE frames named
// envelope frames and the parameterless GET /v1/jobs a JobPage
// (DESIGN.md §6).
const SchemaVersion = 2

// Well-known algorithm names on the wire (mirrors core.Algorithm). The
// accepted set is not limited to these constants: any name registered in
// the internal/policy registry validates, so a new policy is wire-ready
// the moment it registers.
const (
	AlgPredictive    = "predictive"
	AlgNonPredictive = "non-predictive"
	AlgGreedy        = "greedy"
	AlgStaticMax     = "static-max"
	AlgPeriodStretch = "period-stretch"
	AlgImpreciseShed = "imprecise-shed"
)

func validAlgorithm(a string) bool {
	return policy.Registered(a)
}

// Model sources accepted on the wire (mirrors experiment.ModelSource).
const (
	ModelsProfiled    = "profiled"
	ModelsPaper       = "paper"
	ModelsGroundTruth = "ground-truth"
)

// TaskSpec describes one periodic task of a run request: the benchmark
// pipeline driven by a workload pattern, with its regression models
// fitted from the chosen source. Models defaults to "profiled" — the
// paper's own methodology.
type TaskSpec struct {
	Pattern Pattern `json:"pattern"`
	Models  string  `json:"models,omitempty"`
}

// Validate reports every invalid field of the task spec.
func (t TaskSpec) Validate() error {
	var errs []error
	if err := t.Pattern.Validate(); err != nil {
		errs = append(errs, err)
	}
	switch t.Models {
	case "", ModelsProfiled, ModelsPaper, ModelsGroundTruth:
	default:
		errs = append(errs, fmt.Errorf("api: unknown model source %q", t.Models))
	}
	return errors.Join(errs...)
}

// RunRequest submits one simulation: POST /v1/runs. A nil Config means
// the Table 1 defaults; Seed, when set, overrides the config's seed so
// replications of one spec differ only in that field.
type RunRequest struct {
	SchemaVersion int      `json:"schema_version"`
	Algorithm     string   `json:"algorithm"`
	Seed          *uint64  `json:"seed,omitempty"`
	Config        *Config  `json:"config,omitempty"`
	Task          TaskSpec `json:"task"`
}

// Validate aggregates every invalid field of the request.
func (r RunRequest) Validate() error {
	var errs []error
	if r.SchemaVersion != SchemaVersion {
		errs = append(errs, fmt.Errorf("api: schema_version %d unsupported (want %d)", r.SchemaVersion, SchemaVersion))
	}
	if !validAlgorithm(r.Algorithm) {
		errs = append(errs, fmt.Errorf("api: unknown algorithm %q (registered: %s)",
			r.Algorithm, strings.Join(policy.Names(), " | ")))
	}
	if err := r.Task.Validate(); err != nil {
		errs = append(errs, err)
	}
	if r.Config != nil {
		if _, err := r.Config.ToCore(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Sweep pattern families (the paper's figure x-axes).
const (
	SweepTriangular = "triangular"
	SweepIncreasing = "increasing"
	SweepDecreasing = "decreasing"
)

// SweepRequest submits one figure-style sweep: POST /v1/sweeps. Every
// point runs both headline algorithms at the Table 1 defaults; Seeds ≥ 2
// adds Monte Carlo replications per cell. Points are the max workload in
// units of 500 tracks (the paper's x-axis).
type SweepRequest struct {
	SchemaVersion int    `json:"schema_version"`
	Pattern       string `json:"pattern"`
	Points        []int  `json:"points"`
	Seeds         int    `json:"seeds,omitempty"`
}

// Validate aggregates every invalid field of the request.
func (r SweepRequest) Validate() error {
	var errs []error
	if r.SchemaVersion != SchemaVersion {
		errs = append(errs, fmt.Errorf("api: schema_version %d unsupported (want %d)", r.SchemaVersion, SchemaVersion))
	}
	switch r.Pattern {
	case SweepTriangular, SweepIncreasing, SweepDecreasing:
	default:
		errs = append(errs, fmt.Errorf("api: unknown sweep pattern %q", r.Pattern))
	}
	if len(r.Points) == 0 {
		errs = append(errs, fmt.Errorf("api: sweep needs ≥1 point"))
	}
	for _, p := range r.Points {
		if p < 0 {
			errs = append(errs, fmt.Errorf("api: negative sweep point %d", p))
		}
	}
	if r.Seeds < 0 {
		errs = append(errs, fmt.Errorf("api: negative seed count %d", r.Seeds))
	}
	return errors.Join(errs...)
}

// Metrics is the wire mirror of metrics.RunMetrics (§5.2 quantities plus
// the chaos counters).
type Metrics struct {
	Periods        int     `json:"periods"`
	Completed      int     `json:"completed"`
	Missed         int     `json:"missed"`
	MeanCPUUtil    float64 `json:"mean_cpu_util"`
	MeanNetUtil    float64 `json:"mean_net_util"`
	MeanReplicas   float64 `json:"mean_replicas"`
	MaxReplicas    float64 `json:"max_replicas"`
	Replications   int     `json:"replications"`
	Shutdowns      int     `json:"shutdowns"`
	AllocFailures  int     `json:"alloc_failures"`
	UnfinishedWork int     `json:"unfinished_work"`

	DroppedMessages int     `json:"dropped_messages,omitempty"`
	Retransmissions int     `json:"retransmissions,omitempty"`
	Crashes         int     `json:"crashes,omitempty"`
	Recoveries      int     `json:"recoveries,omitempty"`
	MeanRecoveryMS  float64 `json:"mean_recovery_ms,omitempty"`

	ShedItems        int `json:"shed_items,omitempty"`
	StretchedPeriods int `json:"stretched_periods,omitempty"`
}

// MetricsFromRun converts the internal metrics struct to its wire form.
func MetricsFromRun(m metrics.RunMetrics) Metrics {
	return Metrics{
		Periods:        m.Periods,
		Completed:      m.Completed,
		Missed:         m.Missed,
		MeanCPUUtil:    m.MeanCPUUtil,
		MeanNetUtil:    m.MeanNetUtil,
		MeanReplicas:   m.MeanReplicas,
		MaxReplicas:    m.MaxReplicas,
		Replications:   m.Replications,
		Shutdowns:      m.Shutdowns,
		AllocFailures:  m.AllocFailures,
		UnfinishedWork: m.UnfinishedWork,

		DroppedMessages: m.DroppedMessages,
		Retransmissions: m.Retransmissions,
		Crashes:         m.Crashes,
		Recoveries:      m.Recoveries,
		MeanRecoveryMS:  m.MeanRecoveryMS,

		ShedItems:        m.ShedItems,
		StretchedPeriods: m.StretchedPeriods,
	}
}

// ToRun converts the wire metrics back to the internal struct.
func (m Metrics) ToRun() metrics.RunMetrics {
	return metrics.RunMetrics{
		Periods:        m.Periods,
		Completed:      m.Completed,
		Missed:         m.Missed,
		MeanCPUUtil:    m.MeanCPUUtil,
		MeanNetUtil:    m.MeanNetUtil,
		MeanReplicas:   m.MeanReplicas,
		MaxReplicas:    m.MaxReplicas,
		Replications:   m.Replications,
		Shutdowns:      m.Shutdowns,
		AllocFailures:  m.AllocFailures,
		UnfinishedWork: m.UnfinishedWork,

		DroppedMessages: m.DroppedMessages,
		Retransmissions: m.Retransmissions,
		Crashes:         m.Crashes,
		Recoveries:      m.Recoveries,
		MeanRecoveryMS:  m.MeanRecoveryMS,

		ShedItems:        m.ShedItems,
		StretchedPeriods: m.StretchedPeriods,
	}
}

// RunResult is the wire mirror of experiment.RunOutcome (the conversion
// lives in experiment, which imports this package; the reverse import
// would cycle).
type RunResult struct {
	SchemaVersion int     `json:"schema_version"`
	Metrics       Metrics `json:"metrics"`
	Failovers     int     `json:"failovers,omitempty"`
	EventsFired   uint64  `json:"events_fired"`
}

// SweepPoint is one (max workload, algorithm) cell of a sweep result.
// Reps carries every Monte Carlo replication; Metrics is replication 0
// (the pinned seed the golden CSVs were recorded under).
type SweepPoint struct {
	MaxUnits  int       `json:"max_units"`
	Algorithm string    `json:"algorithm"`
	Metrics   Metrics   `json:"metrics"`
	Reps      []Metrics `json:"reps,omitempty"`
}

// SweepResult is the wire form of a completed sweep.
type SweepResult struct {
	SchemaVersion int          `json:"schema_version"`
	Points        []SweepPoint `json:"points"`
}

// Job states. Terminal states are done, failed, and cancelled.
// "retrying" is the backoff window between attempts at a transiently
// failed job: not terminal, and always followed by running or a
// terminal state.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobRetrying  = "retrying"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// TerminalState reports whether a job state is final.
func TerminalState(s string) bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job is the wire view of one submitted job: GET /v1/jobs/{id}, the
// submission response, and each SSE event frame. Exactly one of Run and
// Sweep is set once the job is done, matching Kind.
type Job struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Kind          string `json:"kind"` // "run" | "sweep"
	State         string `json:"state"`
	Error         string `json:"error,omitempty"`
	// Attempts counts execution attempts so far: 1 on a first run, >1
	// after transient-failure retries. 0 while still queued.
	Attempts int `json:"attempts,omitempty"`
	// Fingerprint is the run's content address (run jobs only): stable
	// across daemons and restarts, so a client can resubmit the same
	// spec and correlate the jobs, or find a replayed job after a crash.
	Fingerprint string       `json:"fingerprint,omitempty"`
	CreatedMS   int64        `json:"created_ms"`
	StartedMS   int64        `json:"started_ms,omitempty"`
	FinishedMS  int64        `json:"finished_ms,omitempty"`
	Run         *RunResult   `json:"run,omitempty"`
	Sweep       *SweepResult `json:"sweep,omitempty"`
}

// SchedulerStats is the wire mirror of experiment.SchedulerCounters.
type SchedulerStats struct {
	Requested  uint64 `json:"requested"`
	Deduped    uint64 `json:"deduped"`
	MemoryHits uint64 `json:"memory_hits"`
	DiskHits   uint64 `json:"disk_hits"`
	Simulated  uint64 `json:"simulated"`
	Cancelled  uint64 `json:"cancelled"`
	Remote     uint64 `json:"remote"`
}

// JobStats counts jobs by state.
type JobStats struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Stats is GET /v1/stats: scheduler counters, job accounting, queue and
// worker configuration, and the server's telemetry registry rendered as
// name → value.
type Stats struct {
	SchemaVersion int            `json:"schema_version"`
	Scheduler     SchedulerStats `json:"scheduler"`
	Jobs          JobStats       `json:"jobs"`
	// Sessions is present on daemons with session mode wired (additive;
	// absent on older servers).
	Sessions      *SessionStats      `json:"sessions,omitempty"`
	QueueDepth    int                `json:"queue_depth"`
	QueueCapacity int                `json:"queue_capacity"`
	Workers       int                `json:"workers"`
	Draining      bool               `json:"draining"`
	Telemetry     map[string]float64 `json:"telemetry,omitempty"`
}

// Error is the uniform error envelope every non-2xx response carries.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope wraps Error for the wire.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// Error codes.
const (
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	CodeQueueFull  = "queue_full"
	CodeDraining   = "draining"
	CodeInternal   = "internal"
	CodeConflict   = "conflict"
	// CodeJournal: the durable job journal rejected the submission (disk
	// trouble); the job was NOT accepted. Served as 503 with Retry-After —
	// resubmitting the identical request later is safe (idempotent by
	// fingerprint).
	CodeJournal = "journal_write_failed"
	// CodeRequestTooLarge: the request body exceeds the daemon's limit
	// (1 MiB); served as 413, nothing was admitted.
	CodeRequestTooLarge = "request_too_large"
)

// RetryAfterHeader carries the server's backoff hint on 429/503
// rejections, in integral seconds (the HTTP standard header).
const RetryAfterHeader = "Retry-After"
