package obs

import (
	"io"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Metrics is the concurrency-safe wall-clock metric surface of one
// serving process. It reuses telemetry's registry and HDR histograms —
// the buckets are nanosecond-resolution either way — but owns the lock
// the simulation-side registry deliberately lacks (handlers, workers and
// scrapes all record concurrently). Durations are recorded in wall-clock
// nanoseconds and exposed in seconds, per Prometheus convention.
type Metrics struct {
	mu  sync.Mutex
	reg *telemetry.Registry

	// live values behind the gauges; Gauge itself is set-only.
	inFlight int64
	sseSubs  int64
}

// NewMetrics returns an empty metric surface.
func NewMetrics() *Metrics {
	return &Metrics{reg: telemetry.NewRegistry()}
}

// statusClass buckets an HTTP status into "2xx"/"3xx"/"4xx"/"5xx" so the
// per-route histograms keep bounded label cardinality.
func statusClass(status int) string {
	switch {
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// ObserveHTTP records one served request: a latency histogram per
// (route, status class) and a request counter with the same labels.
func (m *Metrics) ObserveHTTP(route string, status int, d time.Duration) {
	if m == nil {
		return
	}
	labels := []telemetry.Label{
		{Key: "route", Value: route},
		{Key: "status", Value: statusClass(status)},
	}
	m.mu.Lock()
	m.reg.Counter("obs_http_requests_total", labels...).Inc()
	m.reg.Histogram("obs_http_request_duration_seconds", labels...).Record(sim.Time(d.Nanoseconds()))
	m.mu.Unlock()
}

// SetQueueDepth records the number of jobs admitted but not yet holding
// a worker slot.
func (m *Metrics) SetQueueDepth(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.reg.Gauge("obs_queue_depth").Set(float64(n))
	m.mu.Unlock()
}

// AddInFlight adjusts the in-flight job gauge (admitted, not yet
// terminal) by delta.
func (m *Metrics) AddInFlight(delta int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.inFlight += int64(delta)
	m.reg.Gauge("obs_jobs_in_flight").Set(float64(m.inFlight))
	m.mu.Unlock()
}

// AddSSESubscribers adjusts the live SSE subscriber gauge by delta.
func (m *Metrics) AddSSESubscribers(delta int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sseSubs += int64(delta)
	m.reg.Gauge("obs_sse_subscribers").Set(float64(m.sseSubs))
	m.mu.Unlock()
}

// Inc bumps a named counter — the generic hook for event-shaped metrics
// (jobs submitted/finished, rejections) that need no histogram.
func (m *Metrics) Inc(name string, labels ...telemetry.Label) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.reg.Counter(name, labels...).Inc()
	m.mu.Unlock()
}

// The scheduler-observer half: these four methods satisfy
// experiment.WallObserver, so a Metrics can be installed directly with
// (*experiment.Scheduler).SetWallObserver and every simulation scheduled
// there feeds the serving metrics.

// CellQueued counts one run cell entering the scheduler queue.
func (m *Metrics) CellQueued() {
	m.Inc("obs_sched_cells_queued_total")
}

// CellStarted records how long a cell waited in the queue before a
// worker picked it up.
func (m *Metrics) CellStarted(wait time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.reg.Histogram("obs_sched_cell_wait_seconds").Record(sim.Time(wait.Nanoseconds()))
	m.mu.Unlock()
}

// CellFinished records a cell's execution time labelled by how it
// resolved (simulated, disk_hit, remote, cancelled, error).
func (m *Metrics) CellFinished(outcome string, run time.Duration) {
	if m == nil {
		return
	}
	label := telemetry.Label{Key: "outcome", Value: outcome}
	m.mu.Lock()
	m.reg.Counter("obs_sched_cells_finished_total", label).Inc()
	m.reg.Histogram("obs_sched_cell_run_seconds", label).Record(sim.Time(run.Nanoseconds()))
	m.mu.Unlock()
}

// DiskHit records the wall-clock latency of one persistent-cache read
// that returned a cached outcome.
func (m *Metrics) DiskHit(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.reg.Histogram("obs_disk_cache_hit_seconds").Record(sim.Time(d.Nanoseconds()))
	m.mu.Unlock()
}

// Values renders counters and gauges as a flat name → value map (the
// /v1/stats embedding).
func (m *Metrics) Values() map[string]float64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Values()
}

// WritePrometheus renders every metric in Prometheus text exposition
// format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.WritePrometheus(w)
}
