package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// HistSnapshot is the exported state of one duration histogram, in
// milliseconds (the unit the paper reports in).
type HistSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	MinMS  float64 `json:"min_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func histSnapshot(h *Histogram) HistSnapshot {
	return HistSnapshot{
		Count:  h.Count(),
		MeanMS: h.Mean().Milliseconds(),
		MinMS:  h.Min().Milliseconds(),
		P50MS:  h.Quantile(50).Milliseconds(),
		P95MS:  h.Quantile(95).Milliseconds(),
		P99MS:  h.Quantile(99).Milliseconds(),
		MaxMS:  h.Max().Milliseconds(),
	}
}

// RatioSnapshot is the exported state of one ratio histogram, with its
// bucketed CDF so slack distributions plot directly.
type RatioSnapshot struct {
	Count   uint64        `json:"count"`
	Mean    float64       `json:"mean"`
	Min     float64       `json:"min"`
	P05     float64       `json:"p05"`
	P50     float64       `json:"p50"`
	Max     float64       `json:"max"`
	Buckets []RatioBucket `json:"buckets,omitempty"`
}

// RatioBucket is one non-empty slack-histogram bin.
type RatioBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count uint64  `json:"count"`
}

func ratioSnapshot(h *LinearHistogram) RatioSnapshot {
	s := RatioSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
	}
	if h.Count() > 0 {
		s.P05 = h.Quantile(5)
		s.P50 = h.Quantile(50)
	}
	for _, b := range h.Buckets() {
		s.Buckets = append(s.Buckets, RatioBucket{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
	}
	return s
}

// StageSnapshot is the exported telemetry of one (task, stage).
type StageSnapshot struct {
	Task          string        `json:"task"`
	Stage         int           `json:"stage"`
	Latency       HistSnapshot  `json:"latency"`
	JobLatency    HistSnapshot  `json:"job_latency"`
	Slack         RatioSnapshot `json:"slack_ratio"`
	ForecastEvals uint64        `json:"forecast_evals"`
}

// TaskSnapshot is the exported end-to-end telemetry of one task.
type TaskSnapshot struct {
	Task      string        `json:"task"`
	Instances uint64        `json:"instances"`
	Missed    uint64        `json:"missed"`
	Latency   HistSnapshot  `json:"latency"`
	Slack     RatioSnapshot `json:"slack_ratio"`
}

// NetworkSnapshot is the exported segment telemetry: the buffer-vs-wire
// delay split of eqs. (4)–(6).
type NetworkSnapshot struct {
	BufferDelay  HistSnapshot `json:"buffer_delay"`
	WireDelay    HistSnapshot `json:"wire_delay"`
	PayloadBytes uint64       `json:"payload_bytes"`
	WireMsgs     uint64       `json:"wire_msgs"`
	LocalMsgs    uint64       `json:"local_msgs"`
}

// Snapshot is the full JSON view of a recorder.
type Snapshot struct {
	Stages    []StageSnapshot    `json:"stages"`
	Tasks     []TaskSnapshot     `json:"tasks"`
	Network   NetworkSnapshot    `json:"network"`
	QueueWait HistSnapshot       `json:"cpu_queue_wait"`
	Forecast  []SeriesSnapshot   `json:"forecast"`
	Counters  map[string]uint64  `json:"counters"`
	Gauges    map[string]float64 `json:"gauges"`
	Spans     int                `json:"spans"`
	Instants  int                `json:"instants"`
}

// Snapshot exports the recorder's aggregate state; it is safe to call
// while a run is in flight.
func (r *Recorder) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()

	var snap Snapshot
	keys := make([]seriesKey, 0, len(r.stages))
	for k := range r.stages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].task != keys[j].task {
			return keys[i].task < keys[j].task
		}
		return keys[i].stage < keys[j].stage
	})
	for _, k := range keys {
		h := r.stages[k]
		snap.Stages = append(snap.Stages, StageSnapshot{
			Task:          k.task,
			Stage:         k.stage,
			Latency:       histSnapshot(h.stageLat),
			JobLatency:    histSnapshot(h.jobLat),
			Slack:         ratioSnapshot(h.slack),
			ForecastEvals: h.evals.Value(),
		})
	}
	names := make([]string, 0, len(r.tasks))
	for name := range r.tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.tasks[name]
		snap.Tasks = append(snap.Tasks, TaskSnapshot{
			Task:      name,
			Instances: h.instances.Value(),
			Missed:    h.missed.Value(),
			Latency:   histSnapshot(h.e2eLat),
			Slack:     ratioSnapshot(h.e2eSlack),
		})
	}
	snap.Network = NetworkSnapshot{
		BufferDelay:  histSnapshot(r.msgBuffer),
		WireDelay:    histSnapshot(r.msgWire),
		PayloadBytes: r.msgBytes.Value(),
		WireMsgs:     r.msgRemote.Value(),
		LocalMsgs:    r.msgLocal.Value(),
	}
	snap.QueueWait = histSnapshot(r.queueWait)
	snap.Forecast = r.forecast.Snapshot()
	snap.Counters = map[string]uint64{}
	for _, c := range r.reg.counters {
		snap.Counters[c.name+c.labels] = c.n
	}
	snap.Gauges = map[string]float64{}
	for _, g := range r.reg.gauges {
		snap.Gauges[g.name+g.labels] = g.v
	}
	snap.Spans = len(r.spans)
	snap.Instants = len(r.instants)
	return snap
}

// WriteSnapshot writes the snapshot as indented JSON.
func (r *Recorder) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}
