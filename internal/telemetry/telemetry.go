// Package telemetry is the observability layer of the simulator: a
// span/event tracer keyed to simulation time, a metrics registry with
// HDR-style histograms, and a forecast-error subsystem pairing every
// eq. (3)/eq. (5) prediction with the later-observed latency.
//
// A Recorder is one consumer of a run's observation stream: pass it as
// the core.Sink of core.RunObservedContext and it folds every
// trace.Event into spans, metrics and forecast residuals. Recording is
// allocation-free after handle warm-up: metric handles are resolved
// once per (task, stage) and cached, spans append to an amortized
// buffer, and a mutex serializes access so an exporter may read while a
// run is in flight.
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
	"repro/internal/trace"
)

// spanCapacity pre-sizes the span buffer for a default run.
const spanCapacity = 4096

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

// Recorder is the telemetry consumer of one run's observation stream.
type Recorder struct {
	mu sync.Mutex
	// spans holds the KindExec and KindMessage events and instants the
	// KindAdaptation events, in emission order, for the Chrome trace.
	spans    []trace.Event
	instants []trace.Event
	reg      *Registry
	forecast *ForecastSet

	stages map[seriesKey]*stageHandles
	tasks  map[string]*taskHandles
	adapts map[trace.ActionKind]*Counter
	procs  map[int32]*Gauge

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

// New returns an empty recorder.
func New() *Recorder {
	reg := NewRegistry()
	return &Recorder{
		spans:    make([]trace.Event, 0, spanCapacity),
		instants: make([]trace.Event, 0, 256),
		reg:      reg,
		forecast: NewForecastSet(),
		stages:   map[seriesKey]*stageHandles{},
		tasks:    map[string]*taskHandles{},
		adapts:   map[trace.ActionKind]*Counter{},
		procs:    map[int32]*Gauge{},

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

// Registry exposes the metrics registry.
func (r *Recorder) Registry() *Registry { return r.reg }

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

// SampleEvery implements core.Sink: the recorder takes no state samples.
func (r *Recorder) SampleEvery() sim.Time { return 0 }

// Emit implements core.Sink, folding one event into the recorder:
//   - exec: the per-stage job latency histogram and an exec span;
//   - job wait: the ready-queue wait (first dispatch minus submission);
//   - message: the buffer/wire split of eqs. (4)–(6), D_buf = Mid−Start
//     and D_trans = At−Mid, plus a message span;
//   - stage: the stage latency, its slack ratio against the EQF
//     sub-deadline ((dl − observed)/dl: 1 = instant, 0 = on the deadline,
//     negative = late), and the observation for the pending forecast;
//   - end to end: the release-to-completion latency and slack ratio;
//   - forecast: the eq. (3)/(5) forecasts, pending until their stage
//     event (a negative comm forecast — the final stage — is skipped);
//   - adaptation: a counter per action and an instant for the trace;
//   - drops, retransmits, forecast evaluations and utilizations: their
//     counters and gauges.
func (r *Recorder) Emit(e trace.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Kind {
	case trace.KindExec:
		r.stage(e.Task, int(e.Stage)).jobLat.Record(e.At - e.Start)
		r.spans = append(r.spans, e)
	case trace.KindJobWait:
		r.queueWait.Record(e.Mid - e.Start)
	case trace.KindMessage:
		r.msgBuffer.Record(e.Mid - e.Start)
		r.msgWire.Record(e.At - e.Mid)
		r.msgBytes.Add(uint64(e.Value))
		if e.From == e.Proc {
			r.msgLocal.Inc()
		} else {
			r.msgRemote.Inc()
		}
		r.spans = append(r.spans, e)
	case trace.KindStage:
		h := r.stage(e.Task, int(e.Stage))
		h.stageLat.Record(e.Latency)
		if e.Deadline > 0 {
			h.slack.Record(float64(e.Deadline-e.Latency) / float64(e.Deadline))
		}
		s := r.forecast.Series(e.Task, int(e.Stage))
		s.Exec.Observe(int(e.Period), e.Latency)
		if e.Comm >= 0 {
			s.Comm.Observe(int(e.Period), e.Comm)
		}
	case trace.KindEndToEnd:
		h := r.task(e.Task)
		h.e2eLat.Record(e.Latency)
		if e.Deadline > 0 {
			h.e2eSlack.Record(float64(e.Deadline-e.Latency) / float64(e.Deadline))
		}
		h.instances.Inc()
		if e.Missed {
			h.missed.Inc()
		}
	case trace.KindForecast:
		s := r.forecast.Series(e.Task, int(e.Stage))
		s.Exec.Predict(int(e.Period), e.Latency)
		if e.Comm >= 0 {
			s.Comm.Predict(int(e.Period), e.Comm)
		}
	case trace.KindAdaptation:
		kind := e.Action.Kind
		c, ok := r.adapts[kind]
		if !ok {
			c = r.reg.Counter("rm_adaptations_total", Label{"kind", string(kind)})
			r.adapts[kind] = c
		}
		c.Inc()
		r.instants = append(r.instants, e)
	case trace.KindDrop:
		r.msgDropped.Inc()
	case trace.KindRetransmit:
		r.msgRetx.Inc()
	case trace.KindForecastEval:
		r.stage(e.Task, int(e.Stage)).evals.Inc()
	case trace.KindProcUtil:
		g, ok := r.procs[e.Proc]
		if !ok {
			g = r.reg.Gauge("rm_cpu_util", Label{"proc", smallInt(int(e.Proc))})
			r.procs[e.Proc] = g
		}
		g.Set(e.Util)
	case trace.KindNetUtil:
		r.netUtil.Set(e.Util)
	}
}
