// Package telemetry is the observability layer of the simulator: a
// span/event tracer keyed to simulation time, a metrics registry with
// HDR-style histograms, and a forecast-error subsystem pairing every
// eq. (3)/eq. (5) prediction with the later-observed latency.
//
// The package is wired through the facade behind nil-safe methods: a nil
// *Recorder is the disabled state, every method returns immediately on a
// nil receiver, and the cost of a disabled call site is a single pointer
// test (asserted at < 2 ns/op by BenchmarkNilRecorder). When enabled,
// hot-path recording is allocation-free after handle warm-up: metric
// handles are resolved once per (task, stage) and cached, spans append
// to an amortized buffer, and a mutex serializes access so an exporter
// may read while a run is in flight.
//
// Exporters: JSON snapshots (Snapshot/WriteSnapshot) and Chrome
// trace_event JSON (WriteChromeTrace) loadable in Perfetto or
// chrome://tracing. The Registry also renders Prometheus text format
// (Registry.WritePrometheus), which rmserved's /v1/metrics serves
// through obs.Metrics.
package telemetry

import (
	"sync"

	"repro/internal/sim"
)

// SpanKind classifies a span.
type SpanKind uint8

// Span kinds.
const (
	// KindExec is one replica's CPU job: Start=submitted, Mid=first
	// dispatch, End=completed; queue wait is Mid−Start.
	KindExec SpanKind = iota
	// KindMessage is one inter-subtask transfer: Start=enqueued,
	// Mid=transmission start, End=delivered; the buffer delay (paper
	// D_buf) is Mid−Start and the wire time (D_trans) End−Mid.
	KindMessage
)

// Span is one timed interval of the run, keyed to simulation time. The
// struct is fixed-size and recorded by value: the hot path only appends
// to a pre-grown buffer.
type Span struct {
	Kind   SpanKind
	Task   string // task name
	Stage  int32  // executing stage (exec) or destination stage (message)
	Period int32
	Proc   int32 // executing node (exec) or destination node (message)
	From   int32 // source node (message); -1 for exec spans
	Start  sim.Time
	Mid    sim.Time
	End    sim.Time
	Items  int64 // items processed (exec) or payload bytes (message)
}

// Instant is a zero-duration event: allocator invocations and monitoring
// decisions happen at a simulation instant.
type Instant struct {
	At     sim.Time
	Task   string
	Stage  int32
	Period int32
	Kind   string // "replicate", "shutdown", "alloc-failure", "monitor-…", …
	Value  int64  // replicas added, candidates flagged, …
}

// Config tunes the recorder.
type Config struct {
	// CaptureSpans keeps the full span/event buffers for Chrome trace
	// export. Metrics and forecast tracking are always on. Disabling it
	// bounds memory for very long runs.
	CaptureSpans bool
	// SpanCapacity pre-sizes the span buffer.
	SpanCapacity int
}

// DefaultConfig captures spans with a buffer sized for a default run.
func DefaultConfig() Config {
	return Config{CaptureSpans: true, SpanCapacity: 4096}
}

// stageHandles are the cached per-(task, stage) metric handles.
type stageHandles struct {
	jobLat   *Histogram       // per-replica job latency (submit→complete)
	stageLat *Histogram       // monitor-observed stage latency
	slack    *LinearHistogram // (dl − observed)/dl
	evals    *Counter         // Figure 5 forecast evaluations
}

// taskHandles are the cached per-task metric handles.
type taskHandles struct {
	e2eLat    *Histogram
	e2eSlack  *LinearHistogram
	instances *Counter
	missed    *Counter
}

// Recorder is the telemetry sink for one run. A nil *Recorder is valid
// everywhere and records nothing; use New for an enabled one.
type Recorder struct {
	mu       sync.Mutex
	cfg      Config
	spans    []Span
	instants []Instant
	reg      *Registry
	forecast *ForecastSet

	stages map[seriesKey]*stageHandles
	tasks  map[string]*taskHandles
	adapts map[string]*Counter
	procs  map[int]*Gauge

	queueWait  *Histogram
	msgBuffer  *Histogram
	msgWire    *Histogram
	msgBytes   *Counter
	msgLocal   *Counter
	msgRemote  *Counter
	msgDropped *Counter
	msgRetx    *Counter
	netUtil    *Gauge
}

// New returns an enabled recorder.
func New(cfg Config) *Recorder {
	if cfg.SpanCapacity < 0 {
		cfg.SpanCapacity = 0
	}
	reg := NewRegistry()
	return &Recorder{
		cfg:      cfg,
		spans:    make([]Span, 0, cfg.SpanCapacity),
		instants: make([]Instant, 0, 256),
		reg:      reg,
		forecast: NewForecastSet(),
		stages:   map[seriesKey]*stageHandles{},
		tasks:    map[string]*taskHandles{},
		adapts:   map[string]*Counter{},
		procs:    map[int]*Gauge{},

		queueWait:  reg.Histogram("rm_job_queue_wait"),
		msgBuffer:  reg.Histogram("rm_msg_buffer_delay"),
		msgWire:    reg.Histogram("rm_msg_wire_delay"),
		msgBytes:   reg.Counter("rm_msg_payload_bytes_total"),
		msgLocal:   reg.Counter("rm_msg_local_total"),
		msgRemote:  reg.Counter("rm_msg_wire_total"),
		msgDropped: reg.Counter("rm_msg_dropped_total"),
		msgRetx:    reg.Counter("rm_msg_retransmit_total"),
		netUtil:    reg.Gauge("rm_net_util"),
	}
}

// Enabled reports whether the recorder is collecting.
func (r *Recorder) Enabled() bool { return r != nil }

// Registry exposes the metrics registry (nil when disabled).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Forecast exposes the forecast-error subsystem (nil when disabled).
func (r *Recorder) Forecast() *ForecastSet {
	if r == nil {
		return nil
	}
	return r.forecast
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Instants returns a copy of the recorded instant events.
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Instant(nil), r.instants...)
}

// smallInts renders small indexes (stages, processors) without
// allocating.
var smallInts = [...]string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
	"10", "11", "12", "13", "14", "15"}

func smallInt(n int) string {
	if n >= 0 && n < len(smallInts) {
		return smallInts[n]
	}
	return "other"
}

// stage resolves the cached handles for a (task, stage).
func (r *Recorder) stage(task string, st int) *stageHandles {
	k := seriesKey{task, st}
	h, ok := r.stages[k]
	if !ok {
		tl := Label{"task", task}
		sl := Label{"stage", smallInt(st)}
		h = &stageHandles{
			jobLat:   r.reg.Histogram("rm_job_latency", tl, sl),
			stageLat: r.reg.Histogram("rm_stage_latency", tl, sl),
			slack:    r.reg.Linear("rm_stage_slack_ratio", -1, 1, 200, tl, sl),
			evals:    r.reg.Counter("rm_forecast_evals_total", tl, sl),
		}
		r.stages[k] = h
	}
	return h
}

// task resolves the cached handles for a task.
func (r *Recorder) task(name string) *taskHandles {
	h, ok := r.tasks[name]
	if !ok {
		tl := Label{"task", name}
		h = &taskHandles{
			e2eLat:    r.reg.Histogram("rm_e2e_latency", tl),
			e2eSlack:  r.reg.Linear("rm_e2e_slack_ratio", -1, 1, 200, tl),
			instances: r.reg.Counter("rm_instances_total", tl),
			missed:    r.reg.Counter("rm_missed_total", tl),
		}
		r.tasks[name] = h
	}
	return h
}

// RecordExec records one replica CPU job of a subtask: the per-stage job
// service histogram plus (when capturing) an exec span. The wrapper is
// small enough to inline, so the disabled (nil-receiver) call costs one
// predictable branch at the call site.
func (r *Recorder) RecordExec(task string, stage, period, proc, items int, submitted, started, completed sim.Time) {
	if r == nil {
		return
	}
	r.recordExec(task, stage, period, proc, items, submitted, started, completed)
}

func (r *Recorder) recordExec(task string, stage, period, proc, items int, submitted, started, completed sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stage(task, stage).jobLat.Record(completed - submitted)
	if r.cfg.CaptureSpans {
		r.spans = append(r.spans, Span{
			Kind: KindExec, Task: task, Stage: int32(stage), Period: int32(period),
			Proc: int32(proc), From: -1,
			Start: submitted, Mid: started, End: completed, Items: int64(items),
		})
	}
}

// RecordJobWait records one job's ready-queue wait (first dispatch minus
// submission). It is wired from the cpu JobObserver hook, so it covers
// every job served on a node — not just the ones the facade submits.
func (r *Recorder) RecordJobWait(proc int, wait sim.Time) {
	if r == nil {
		return
	}
	r.recordJobWait(proc, wait)
}

func (r *Recorder) recordJobWait(proc int, wait sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queueWait.Record(wait)
}

// RecordMessage records one network delivery with its buffer/wire split
// (paper eqs. 4–6): D_buf = sent−enqueued, D_trans = delivered−sent.
func (r *Recorder) RecordMessage(task string, stage, period, from, to int, payloadBytes int64, enqueued, sent, delivered sim.Time) {
	if r == nil {
		return
	}
	r.recordMessage(task, stage, period, from, to, payloadBytes, enqueued, sent, delivered)
}

func (r *Recorder) recordMessage(task string, stage, period, from, to int, payloadBytes int64, enqueued, sent, delivered sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgBuffer.Record(sent - enqueued)
	r.msgWire.Record(delivered - sent)
	r.msgBytes.Add(uint64(payloadBytes))
	if from == to {
		r.msgLocal.Inc()
	} else {
		r.msgRemote.Inc()
	}
	if r.cfg.CaptureSpans {
		r.spans = append(r.spans, Span{
			Kind: KindMessage, Task: task, Stage: int32(stage), Period: int32(period),
			Proc: int32(to), From: int32(from),
			Start: enqueued, Mid: sent, End: delivered, Items: payloadBytes,
		})
	}
}

// RecordStage records one stage's monitor-observed latency against its
// current EQF deadline: the per-stage latency histogram and the
// slack-to-deadline ratio histogram ((dl − observed)/dl: 1 = instant,
// 0 = on the deadline, negative = late).
func (r *Recorder) RecordStage(task string, stage, period int, latency, deadline sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.stage(task, stage)
	h.stageLat.Record(latency)
	if deadline > 0 {
		h.slack.Record(float64(deadline-latency) / float64(deadline))
	}
}

// RecordEndToEnd records one completed instance's release-to-completion
// latency and end-to-end slack ratio.
func (r *Recorder) RecordEndToEnd(task string, period int, latency, deadline sim.Time, missed bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.task(task)
	h.e2eLat.Record(latency)
	if deadline > 0 {
		h.e2eSlack.Record(float64(deadline-latency) / float64(deadline))
	}
	h.instances.Inc()
	if missed {
		h.missed.Inc()
	}
}

// RecordAdaptation records one allocator action or monitoring decision
// as an instant event plus a counter.
func (r *Recorder) RecordAdaptation(at sim.Time, task string, stage, period int, kind string, value int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.adapts[kind]
	if !ok {
		c = r.reg.Counter("rm_adaptations_total", Label{"kind", kind})
		r.adapts[kind] = c
	}
	c.Inc()
	if r.cfg.CaptureSpans {
		r.instants = append(r.instants, Instant{
			At: at, Task: task, Stage: int32(stage), Period: int32(period),
			Kind: kind, Value: value,
		})
	}
}

// CountMessageDrop counts one lost segment message (drop probability or
// partition), observed by the sender through the chaos layer.
func (r *Recorder) CountMessageDrop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.msgDropped.Inc()
	r.mu.Unlock()
}

// CountRetransmit counts one inter-subtask handoff resent after a
// delivery-timeout expiry.
func (r *Recorder) CountRetransmit() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.msgRetx.Inc()
	r.mu.Unlock()
}

// RecordForecastEval counts one Figure 5 forecast evaluation (wired from
// the predictive allocator's probe hook).
func (r *Recorder) RecordForecastEval(task string, stage int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stage(task, stage).evals.Inc()
}

// SetProcUtil updates the per-processor utilization gauge sampled each
// monitoring window.
func (r *Recorder) SetProcUtil(proc int, util float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.procs[proc]
	if !ok {
		g = r.reg.Gauge("rm_cpu_util", Label{"proc", smallInt(proc)})
		r.procs[proc] = g
	}
	g.Set(util)
}

// SetNetUtil updates the network utilization gauge.
func (r *Recorder) SetNetUtil(util float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.netUtil.Set(util)
}

// Predict records the eq. (3)/(5) model forecasts for one stage of one
// period, to be paired with the later observation. A negative comm
// forecast means "no outgoing message" (the final stage) and is skipped.
func (r *Recorder) Predict(task string, stage, period int, exec, comm sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.forecast.Series(task, stage)
	s.Exec.Predict(period, exec)
	if comm >= 0 {
		s.Comm.Predict(period, comm)
	}
}

// ObserveForecast pairs the stage's observed latencies with the pending
// forecasts for the period.
func (r *Recorder) ObserveForecast(task string, stage, period int, exec, comm sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.forecast.Series(task, stage)
	s.Exec.Observe(period, exec)
	if comm >= 0 {
		s.Comm.Observe(period, comm)
	}
}
