package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestBucketIndexBoundsContiguous(t *testing.T) {
	// Every bucket's (lo, hi] range must contain exactly the values that
	// map to it, and adjacent buckets must tile the int64 range.
	for idx := 0; idx < nBuckets; idx++ {
		lo, hi := bucketBounds(idx)
		if hi <= lo {
			t.Fatalf("bucket %d: empty range (%d, %d]", idx, lo, hi)
		}
		if got := bucketIndex(hi); got != idx {
			t.Fatalf("bucket %d: hi %d maps to bucket %d", idx, hi, got)
		}
		if lo >= 0 {
			if got := bucketIndex(lo + 1); got != idx {
				t.Fatalf("bucket %d: lo+1 %d maps to bucket %d", idx, lo+1, got)
			}
		}
		if idx > 0 {
			_, prevHi := bucketBounds(idx - 1)
			if prevHi != lo {
				t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", idx-1, prevHi, idx, lo)
			}
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []sim.Time{10, 20, 30, 40} {
		h.Record(v * sim.Millisecond)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 10*sim.Millisecond || h.Max() != 40*sim.Millisecond {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 25*sim.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Sum() != 100*sim.Millisecond {
		t.Errorf("Sum = %v", h.Sum())
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Record(-5 * sim.Millisecond)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("negative record: count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
}

func TestHistogramQuantileRelativeError(t *testing.T) {
	// The log-linear layout bounds relative quantile error at 1/halfSub.
	var h Histogram
	rng := rand.New(rand.NewPCG(3, 5))
	var xs []float64
	for i := 0; i < 50000; i++ {
		v := sim.Time(rng.Int64N(int64(200*sim.Millisecond))) + sim.Microsecond
		h.Record(v)
		xs = append(xs, float64(v))
	}
	for _, p := range []float64{50, 90, 95, 99} {
		got := float64(h.Quantile(p))
		// Exact percentile via sort-free selection is overkill; a second
		// histogram pass with fine linear buckets gives a tight reference.
		want := exactPercentile(xs, p)
		if rel := math.Abs(got-want) / want; rel > 2.0/halfSub {
			t.Errorf("p%.0f: histogram %v vs exact %v (rel err %.4f)", p, got, want, rel)
		}
	}
	if float64(h.Quantile(0)) < float64min(xs) || float64(h.Quantile(100)) > float64max(xs) {
		t.Error("quantiles escape the observed envelope")
	}
}

func exactPercentile(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	// insertion-free: use sort via stdlib
	quicksort(cp, 0, len(cp)-1)
	rank := p / 100 * float64(len(cp)-1)
	lo := int(rank)
	if lo >= len(cp)-1 {
		return cp[len(cp)-1]
	}
	frac := rank - float64(lo)
	return cp[lo] + frac*(cp[lo+1]-cp[lo])
}

func quicksort(xs []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	p := xs[(lo+hi)/2]
	i, j := lo, hi
	for i <= j {
		for xs[i] < p {
			i++
		}
		for xs[j] > p {
			j--
		}
		if i <= j {
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
		}
	}
	quicksort(xs, lo, j)
	quicksort(xs, i, hi)
}

func float64min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func float64max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestLinearHistogramClampsToRange(t *testing.T) {
	h := NewLinearHistogram(-1, 1, 200)
	h.Record(-5)  // clamps into the lowest bucket
	h.Record(0.5) // in range
	h.Record(3)   // clamps into the highest bucket
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != -5 || h.Max() != 3 {
		t.Errorf("Min/Max track raw values: %v/%v", h.Min(), h.Max())
	}
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("buckets = %d, want 3 occupied", len(bs))
	}
	if bs[0].Lo != -1 {
		t.Errorf("lowest occupied bucket starts at %v, want -1", bs[0].Lo)
	}
}

func TestLinearHistogramBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted range did not panic")
		}
	}()
	NewLinearHistogram(1, -1, 10)
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", Label{"task", "aaw"})
	b := r.Counter("x_total", Label{"task", "aaw"})
	c := r.Counter("x_total", Label{"task", "other"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if a == c {
		t.Error("different labels returned the same counter")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("same-name histograms distinct")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same-name gauges distinct")
	}
	if r.Linear("l", 0, 1, 10) != r.Linear("l", 0, 1, 10) {
		t.Error("same-name linear histograms distinct")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rm_test_total", Label{"task", "aaw"}).Add(7)
	r.Gauge("rm_test_util").Set(0.25)
	h := r.Histogram("rm_test_latency")
	h.Record(10 * sim.Millisecond)
	h.Record(20 * sim.Millisecond)
	h.Record(500 * sim.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`rm_test_total{task="aaw"} 7`,
		"rm_test_util 0.25",
		"rm_test_latency_count 3",
		`rm_test_latency_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Bucket lines must be cumulative and in increasing-le order.
	var lastCum uint64
	var lastLe float64
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "rm_test_latency_bucket{le=\"") || strings.Contains(line, "+Inf") {
			continue
		}
		le, cum, err := parseBucketLine(line)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if le <= lastLe && seen > 0 {
			t.Errorf("le out of order: %v after %v", le, lastLe)
		}
		if cum < lastCum {
			t.Errorf("cumulative count decreased: %d after %d", cum, lastCum)
		}
		lastLe, lastCum = le, cum
		seen++
	}
	if seen == 0 {
		t.Error("no bucket lines found")
	}
}

// parseBucketLine parses `name{le="X"} N`.
func parseBucketLine(line string) (le float64, cum uint64, err error) {
	i := strings.Index(line, `le="`)
	j := strings.Index(line[i+4:], `"`)
	if le, err = strconv.ParseFloat(line[i+4:i+4+j], 64); err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(line)
	cum, err = strconv.ParseUint(fields[len(fields)-1], 10, 64)
	return le, cum, err
}

func TestForecastTrackResidualsAndMAPE(t *testing.T) {
	tr := NewForecastTrack()
	// Over-prediction: pred 120ms vs obs 100ms → |resid| 20ms, 20% APE.
	tr.Predict(0, 120*sim.Millisecond)
	tr.Observe(0, 100*sim.Millisecond)
	// Under-prediction: pred 90ms vs obs 100ms → 10ms, 10% APE.
	tr.Predict(1, 90*sim.Millisecond)
	tr.Observe(1, 100*sim.Millisecond)
	// Unmatched observation is dropped.
	tr.Observe(7, 55*sim.Millisecond)

	if tr.Matched() != 2 {
		t.Errorf("Matched = %d, want 2", tr.Matched())
	}
	if got := tr.MAPE(); math.Abs(got-15) > 1e-9 {
		t.Errorf("MAPE = %v, want 15", got)
	}
	if got := tr.MeanErrorMS(); math.Abs(got-5) > 1e-9 {
		t.Errorf("MeanErrorMS = %v, want +5 (net over-prediction)", got)
	}
	s := tr.Snapshot()
	if s.Over != 1 || s.Under != 1 || s.PendingNow != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.AbsMaxMS != 20 {
		t.Errorf("AbsMaxMS = %v, want 20", s.AbsMaxMS)
	}
}

func TestForecastSetSortedSnapshot(t *testing.T) {
	f := NewForecastSet()
	f.Series("b", 1)
	f.Series("a", 2)
	f.Series("a", 0)
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("series = %d", len(snap))
	}
	if snap[0].Task != "a" || snap[0].Stage != 0 || snap[2].Task != "b" {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
}

// exec is a KindExec event: one replica job of task "aaw".
func exec(stage, period, proc, items int, submitted, started, completed sim.Time) trace.Event {
	return trace.Event{Kind: trace.KindExec, Task: "aaw", Stage: int32(stage), Period: int32(period),
		Proc: int32(proc), Value: int64(items), Start: submitted, Mid: started, At: completed}
}

// message is a KindMessage event: one handoff of task "aaw".
func message(stage, period, from, to int, bytes int64, enqueued, sent, delivered sim.Time) trace.Event {
	return trace.Event{Kind: trace.KindMessage, Task: "aaw", Stage: int32(stage), Period: int32(period),
		From: int32(from), Proc: int32(to), Value: bytes, Start: enqueued, Mid: sent, At: delivered}
}

// replicate is a KindAdaptation event adding replicas to stage 0.
func replicate(at sim.Time, added int64) trace.Event {
	return trace.Event{Kind: trace.KindAdaptation, At: at, Task: "aaw", Value: added,
		Action: &trace.AdaptationEvent{At: at, Task: "aaw", Kind: trace.ActionReplicate, Procs: []int{1}}}
}

func TestRecorderEndToEnd(t *testing.T) {
	r := New()
	// Period 0 of task "aaw": predict, execute, message, observe.
	for _, e := range []trace.Event{
		{Kind: trace.KindForecast, Task: "aaw", Latency: 100 * sim.Millisecond, Comm: 10 * sim.Millisecond},
		exec(0, 0, 2, 50, 0, sim.Millisecond, 90*sim.Millisecond),
		{Kind: trace.KindJobWait, Proc: 2, Start: 0, Mid: sim.Millisecond, At: 90 * sim.Millisecond},
		message(1, 0, 2, 3, 4096, 90*sim.Millisecond, 92*sim.Millisecond, 95*sim.Millisecond),
		message(2, 0, 0, 1, 128, 0, sim.Millisecond, 2*sim.Millisecond),
		{Kind: trace.KindStage, Task: "aaw", Latency: 90 * sim.Millisecond, Comm: 5 * sim.Millisecond,
			Deadline: 200 * sim.Millisecond},
		{Kind: trace.KindEndToEnd, Task: "aaw", Latency: 95 * sim.Millisecond, Deadline: sim.Second},
		replicate(100*sim.Millisecond, 2),
		{Kind: trace.KindProcUtil, Proc: 2, Util: 0.4},
		{Kind: trace.KindNetUtil, Util: 0.1},
		{Kind: trace.KindDrop},
		{Kind: trace.KindRetransmit},
		{Kind: trace.KindForecastEval, Task: "aaw"},
		{Kind: trace.KindSample, Sample: &trace.Sample{}}, // not the recorder's: ignored
	} {
		r.Emit(e)
	}

	snap := r.Snapshot()
	if len(snap.Stages) != 1 || snap.Stages[0].Task != "aaw" || snap.Stages[0].Stage != 0 {
		t.Fatalf("stages = %+v", snap.Stages)
	}
	st := snap.Stages[0]
	if st.Latency.Count != 1 || st.Latency.P50MS != 90 {
		t.Errorf("stage latency = %+v", st.Latency)
	}
	if st.JobLatency.Count != 1 {
		t.Errorf("job latency = %+v", st.JobLatency)
	}
	if st.Slack.Count != 1 || math.Abs(st.Slack.Mean-0.55) > 0.01 {
		t.Errorf("slack = %+v, want mean ≈ 0.55", st.Slack)
	}
	if len(snap.Tasks) != 1 || snap.Tasks[0].Instances != 1 || snap.Tasks[0].Missed != 0 {
		t.Errorf("tasks = %+v", snap.Tasks)
	}
	if snap.Network.WireMsgs != 2 || snap.Network.PayloadBytes != 4096+128 {
		t.Errorf("network = %+v", snap.Network)
	}
	if snap.Network.BufferDelay.Count != 2 {
		t.Errorf("buffer delay count = %d, want 2", snap.Network.BufferDelay.Count)
	}
	if len(snap.Forecast) != 1 {
		t.Fatalf("forecast series = %d", len(snap.Forecast))
	}
	fs := snap.Forecast[0]
	if fs.Exec.Matched != 1 || fs.Comm.Matched != 1 {
		t.Errorf("forecast matches = %+v", fs)
	}
	// exec: pred 100 obs 90 → ~11.1% APE; comm: pred 10 obs 5 → 100%.
	if math.Abs(fs.Exec.MAPEPct-100.0/9) > 0.01 {
		t.Errorf("exec MAPE = %v, want ≈11.11", fs.Exec.MAPEPct)
	}
	if snap.Counters[`rm_adaptations_total{kind="replicate"}`] != 1 {
		t.Errorf("adaptation counter missing: %v", snap.Counters)
	}
	if snap.Gauges[`rm_cpu_util{proc="2"}`] != 0.4 || snap.Gauges["rm_net_util"] != 0.1 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	if snap.Spans != 3 || snap.Instants != 1 {
		// 1 exec span + 2 message spans; job waits are metrics-only.
		t.Errorf("spans/instants = %d/%d, want 3/1", snap.Spans, snap.Instants)
	}
	if snap.QueueWait.Count != 1 || snap.QueueWait.MaxMS != 1 {
		t.Errorf("queue wait = %+v, want one 1 ms wait", snap.QueueWait)
	}
	for name, want := range map[string]uint64{
		"rm_msg_dropped_total":                          1,
		"rm_msg_retransmit_total":                       1,
		`rm_forecast_evals_total{task="aaw",stage="0"}`: 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

func TestPredictFinalStageSkipsComm(t *testing.T) {
	r := New()
	r.Emit(trace.Event{Kind: trace.KindForecast, Task: "aaw", Stage: 2, Latency: 50 * sim.Millisecond, Comm: -1})
	r.Emit(trace.Event{Kind: trace.KindStage, Task: "aaw", Stage: 2, Latency: 45 * sim.Millisecond, Comm: -1,
		Deadline: sim.Second})
	fs := r.Snapshot().Forecast[0]
	if fs.Exec.Matched != 1 || fs.Comm.Matched != 0 {
		t.Errorf("final stage: exec %d matches, comm %d — want 1, 0",
			fs.Exec.Matched, fs.Comm.Matched)
	}
}

func TestWriteChromeTraceValidAndLoadable(t *testing.T) {
	r := New()
	r.Emit(exec(0, 0, 2, 50, 0, sim.Millisecond, 90*sim.Millisecond))
	r.Emit(message(1, 0, 2, 3, 4096, 90*sim.Millisecond, 92*sim.Millisecond, 95*sim.Millisecond))
	r.Emit(message(2, 0, 0, 1, 128, sim.Millisecond, sim.Millisecond, 2*sim.Millisecond))
	r.Emit(replicate(100*sim.Millisecond, 2))

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var exec, net, inst, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.PID == pidNetwork {
				net++
			} else {
				exec++
			}
		case "i":
			inst++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
		if e.TS < 0 {
			t.Errorf("negative timestamp in %q", e.Name)
		}
	}
	if exec != 1 {
		t.Errorf("exec slices = %d, want 1", exec)
	}
	// First message: buffer slice + wire slice; second: wire only (zero
	// buffer delay is elided).
	if net != 3 {
		t.Errorf("network slices = %d, want 3", net)
	}
	if inst != 1 || meta == 0 {
		t.Errorf("instants = %d, metadata = %d", inst, meta)
	}
}

func TestWriteChromeTraceEmptyIsValid(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Errorf("traceEvents missing or not an array: %v", doc)
	}
}

// BenchmarkRecordExec is the cost of folding one exec event.
func BenchmarkRecordExec(b *testing.B) {
	r := New()
	e := exec(0, 0, 2, 50, 0, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(r.spans) == cap(r.spans) {
			r.spans = r.spans[:0] // bound the span buffer across b.N
		}
		r.Emit(e)
	}
}

func TestEnabledHotPathDoesNotAllocate(t *testing.T) {
	r := New()
	r.Emit(exec(0, 0, 2, 50, 0, 1, 2)) // warm the handle cache
	stage := trace.Event{Kind: trace.KindStage, Task: "aaw", Period: 1, Latency: sim.Millisecond,
		Comm: -1, Deadline: sim.Second}
	wait := trace.Event{Kind: trace.KindJobWait, Proc: 2, Start: 0, Mid: sim.Microsecond}
	r.Emit(stage) // warm the forecast series
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(exec(0, 1, 2, 50, 0, 1, 2))
		r.Emit(stage)
		r.Emit(wait)
	})
	if allocs != 0 {
		t.Errorf("enabled hot path allocates %.1f per run, want 0", allocs)
	}
}
