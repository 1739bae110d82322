// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload in its own process for a fixed wall-clock window,
// checks the program's outputs, and prints one JSON result line:
//
//	go run . --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from CPU and block
// profiles and from spans the benchmark records around each call into
// the program. The benchmark drives the program only through its public
// functions; see README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dynbench"
	"repro/internal/experiment"
	"repro/internal/profile"
)

// workloads maps each workload name onto its driver.
var workloads = map[string]func(*env) (*report, error){
	"sweep-cold":     runSweepCold,
	"big-topology":   runBigTopology,
	"serve-mixed":    runServeMixed,
	"session-stream": runSessionStream,
}

// env is what a workload driver gets: its seed, its measuring window,
// the load bound (the host's CPU count), and the tracer (nil when
// untraced).
type env struct {
	name    string
	seed    uint64
	seconds time.Duration
	nproc   int
	tr      *tracer
}

// report is what a workload driver returns.
type report struct {
	// setupTimes are the repeated set-ups' wall times in seconds;
	// setupPrep is the workload's own part of a set-up.
	setupTimes []float64
	setupPrep  prepFunc
	// tailCap is the highest percentile latency_tail_ms may report.
	tailCap float64
	// workPerS is work units done per second of wall time.
	workPerS float64
	// lat holds per-operation latencies in ms; latTraced those that ran
	// while the profilers were on (trace mode only). latBlocks, when set,
	// splits lat by pass (see latencyFigures).
	lat, latTraced []float64
	latBlocks      [][]float64
	// cpuPerPass is process CPU seconds per pass, the workload's
	// repeating unit.
	cpuPerPass float64
	peakHeapMB float64
	attempted  int64
	failed     int64
	// checks lists every correctness check that failed.
	checks []string
	layers map[string]float64
}

func (r *report) failCheck(format string, args ...any) {
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep-cold, big-topology, serve-mixed or session-stream")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase, in seconds")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		spanDir = flag.String("span-dir", ".bench_build/trace", "where a traced run writes its span log")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	e := &env{
		name:    *name,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		nproc:   runtime.NumCPU(),
	}
	// Every workload runs on one P; its load generators, scheduler
	// workers and daemon workers still number nproc. See README.md, "One
	// P".
	runtime.GOMAXPROCS(1)
	if *traced == 1 {
		e.tr = newTracer(e.seconds)
	}
	r, err := run(e)
	if err == nil {
		err = timeSetup(r, r.setupPrep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if e.tr != nil {
		if err := e.tr.flush(filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	out := result{
		Correct:   len(r.checks) == 0,
		Attempted: r.attempted,
		Failed:    max(r.failed, int64(len(r.checks))),
		Metrics:   map[string]metric{},
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
		r.checks = append(r.checks, "no operation completed")
	}
	if e.tr == nil {
		endToEnd(r, out.Metrics)
	} else {
		perLayer(r, out.Metrics)
	}
	printTable(e, r, out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tailPercentiles are the candidates for latency_tail_ms. The tail is
// the highest of them with at least ten samples beyond it; the
// workloads are sized so that every run of one workload lands on the
// same percentile. p99.9 is left out: on a shared 2-core host it moved
// by a fifth from run to run on both workloads large enough for it.
var tailPercentiles = []float64{99, 97.5, 95, 90, 75}

// tail returns the tail percentile for n samples, at most limit, and
// how many samples lie beyond it.
func tail(n int, limit float64) (pct float64, beyond int) {
	for _, p := range tailPercentiles {
		if b := int(float64(n) * (100 - p) / 100); p <= limit && b >= 10 {
			return p, b
		}
	}
	return 50, n / 2
}

// latencyFigures returns latency_p50_ms and latency_tail_ms, with the
// sample count and tail percentile behind them. A workload that cut its
// samples into passes reports, for each figure, the median over the
// passes of that pass's percentile, as it reports its rate and CPU time
// per pass: a stall of the host then moves the few passes it lands in,
// not the figure. The other workloads take both over the whole run.
func latencyFigures(r *report) (p50, tailMS, pct float64, n, beyond int) {
	blocks := r.latBlocks
	if len(blocks) == 0 {
		blocks = [][]float64{r.lat}
	}
	var mids, tails []float64
	for _, b := range blocks {
		if len(b) == 0 {
			continue
		}
		p, _ := tail(len(b), r.tailCap)
		mids = append(mids, percentile(b, 50))
		tails = append(tails, percentile(b, p))
	}
	n = len(r.lat)
	if len(r.latBlocks) > 0 {
		n = len(r.latBlocks[0]) // every pass holds the same operations
	}
	pct, beyond = tail(n, r.tailCap)
	return median(mids), median(tails), pct, n, beyond
}

func endToEnd(r *report, m map[string]metric) {
	p50, tailMS, _, _, _ := latencyFigures(r)
	m["setup_s"] = metric{median(r.setupTimes), "s"}
	m["work_per_s"] = metric{r.workPerS, "1/s"}
	m["latency_p50_ms"] = metric{p50, "ms"}
	m["latency_tail_ms"] = metric{tailMS, "ms"}
	m["cpu_s"] = metric{r.cpuPerPass, "s"}
	m["peak_heap_mb"] = metric{r.peakHeapMB, "MiB"}
}

// layerUnits gives every per-layer metric its unit. Each workload
// reports all of them; a layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"experiment.cells_requested":    "count",
	"experiment.cells_simulated":    "count",
	"experiment.cells_memory_hits":  "count",
	"experiment.cells_deduped":      "count",
	"experiment.sim_per_request":    "ratio",
	"experiment.cell_wait_ms":       "ms",
	"experiment.cell_run_ms":        "ms",
	"experiment.run_s":              "s",
	"experiment.render_s":           "s",
	"experiment.fingerprint_us":     "us",
	"sim.events":                    "count",
	"sim.ns_per_event":              "ns",
	"lanes.speedup":                 "ratio",
	"lanes.block_s":                 "s",
	"core.allocs_per_run":           "count",
	"core.bytes_per_run":            "bytes",
	"server.submit_ms":              "ms",
	"server.wait_ms":                "ms",
	"server.queue_wait_ms":          "ms",
	"server.cell_run_ms":            "ms",
	"server.disk_cache_hit_ms":      "ms",
	"server.rejected":               "count",
	"client.retries":                "count",
	"session.frames":                "count",
	"session.snapshots":             "count",
	"session.diffs":                 "count",
	"session.resyncs":               "count",
	"session.bytes_per_frame":       "bytes",
	"session.pacer_late_ms":         "ms",
	"session.pacer_misses":          "count",
	"runtime.gc_cycles":             "count",
	"runtime.gc_pause_ms":           "ms",
	"runtime.gc_self_s":             "s",
	"trace.overhead_ms":             "ms",
	"trace.overhead_pct":            "%",
	"trace.traced_latency_p50_ms":   "ms",
	"trace.untraced_latency_p50_ms": "ms",
}

func init() {
	for _, l := range selfLayers {
		layerUnits[l+".self_s"] = "s"
	}
}

func perLayer(r *report, m map[string]metric) {
	untraced, traced := percentile(r.lat, 50), percentile(r.latTraced, 50)
	r.layers["trace.untraced_latency_p50_ms"] = untraced
	r.layers["trace.traced_latency_p50_ms"] = traced
	r.layers["trace.overhead_ms"] = traced - untraced
	if untraced > 0 {
		r.layers["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	}
	for name, unit := range layerUnits {
		m[name] = metric{r.layers[name], unit}
	}
}

// printTable writes every metric by name and unit, then the checks.
func printTable(e *env, r *report, out result) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v nproc=%d\n", e.name, e.seed, e.seconds.Seconds(), e.tr != nil, e.nproc)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	_, _, pct, n, beyond := latencyFigures(r)
	per := ""
	if len(r.latBlocks) > 0 {
		per = fmt.Sprintf(" per pass over %d passes", len(r.latBlocks))
	}
	fmt.Printf("  latency samples %d%s, tail p%g with %d beyond; attempted %d, failed %d\n",
		n, per, pct, beyond, out.Attempted, out.Failed)
	for _, c := range r.checks {
		fmt.Printf("  CHECK FAILED: %s\n", c)
	}
}

// percentile returns the p-th percentile of xs (nearest rank), or 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// prepFunc is a workload's own part of a set-up. The cleanup it returns,
// if any, undoes the set-up and is not timed.
type prepFunc func() (cleanup func(), err error)

// timeSetup times setupHalf identical set-ups. Each profiles and fits
// the Table 1 models exactly as experiment.DefaultModels does, then runs
// prep. The first, cold set-up through DefaultModels is not counted.
// Every workload calls it before its measured phase, and main calls it
// again with the same prep after: setup_s is the median of both halves.
// A single set-up takes about 20 ms, and on a shared host the speed of
// the same code drifts between regimes lasting up to seconds, so the
// median of repeats spread over the whole run is what stays steady from
// process to process. A fitted model that differs from DefaultModels'
// is a failed check.
func timeSetup(r *report, prep prepFunc) error {
	want, err := experiment.DefaultModels()
	if err != nil {
		return err
	}
	r.setupPrep = prep
	for i := 0; i < setupHalf; i++ {
		runtime.GC()
		start := time.Now()
		m, err := experiment.BuildModels(core.DefaultConfig(), dynbench.NewTask(dynbench.DefaultConfig()),
			profile.DefaultExecGrid(), profile.DefaultCommGrid(), 11)
		if err != nil {
			return err
		}
		cleanup, err := prep()
		if err != nil {
			return err
		}
		r.setupTimes = append(r.setupTimes, time.Since(start).Seconds())
		if cleanup != nil {
			cleanup()
		}
		if !reflect.DeepEqual(m, want) {
			r.failCheck("set-up %d: fitted models differ from experiment.DefaultModels", len(r.setupTimes))
		}
	}
	return nil
}

// setupHalf is half the number of set-ups setup_s is the median of.
const setupHalf = 23

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapWatch samples the live heap, as the garbage collector measures
// it at the end of each cycle, over the measured phase. Only cycles that
// end inside the phase count, and one forced cycle closes it, so a phase
// that allocates too little to trigger a collection still measures its
// own live heap. The peak is the 95th percentile of the cycles: the
// single highest cycle depends on which moment a collection happened to
// catch, and moved by a fifth from run to run.
//
// The collector itself reports each cycle, through the finalizer of a
// sentinel that only the watcher knows: the cycle that finds the
// sentinel unreachable queues its finalizer, which samples and arms a
// new sentinel. A poller would wake the process on its own, and cpu_s
// would count those wake-ups as the program's: on the session workload,
// idle between frames, a 10 s run polling every 100 ms used 5 to 9% less
// CPU time than two runs polling every 5 ms beside it.
type heapWatch struct {
	mu      sync.Mutex
	stopped bool
	before  runtime.MemStats
	cycle   uint64
	live    []float64 // MiB, one per observed cycle
}

// sentinel holds a pointer so that it gets an allocation of its own
// (the tiny allocator batches pointer-free objects, and a finalizer on
// one of those may never run).
type sentinel struct{ h *heapWatch }

func watchHeap() *heapWatch {
	h := &heapWatch{}
	runtime.ReadMemStats(&h.before)
	h.cycle = uint64(h.before.NumGC)
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{h}, func(s *sentinel) {
		s.h.mu.Lock()
		defer s.h.mu.Unlock()
		if !s.h.stopped {
			s.h.sample()
			s.h.arm()
		}
	})
}

// sample records the live heap of the latest cycle if it is new. The
// caller holds h.mu.
func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return
	}
	if c := s[0].Value.Uint64(); c > h.cycle {
		h.cycle = c
		h.live = append(h.live, float64(s[1].Value.Uint64())/(1<<20))
	}
}

// finish stops the sampler and fills the report's heap and GC figures.
func (h *heapWatch) finish(r *report) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.layers["runtime.gc_cycles"] = float64(after.NumGC - h.before.NumGC)
	r.layers["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-h.before.PauseTotalNs) / 1e6
	runtime.GC()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	h.sample()
	r.peakHeapMB = percentile(h.live, 95)
}

// latencies collects per-operation latencies from concurrent operations,
// split by whether the profilers were on when the operation started. A
// workload that repeats a fixed pass also cuts the untraced samples into
// one block per pass.
type latencies struct {
	mu              sync.Mutex
	untraced, trace []float64
	blocks          [][]float64
	open            int // where the block not yet cut starts in untraced
}

func (l *latencies) add(ms float64, traced bool) {
	l.mu.Lock()
	if traced {
		l.trace = append(l.trace, ms)
	} else {
		l.untraced = append(l.untraced, ms)
	}
	l.mu.Unlock()
}

// cut closes a block: the untraced samples added since the last cut.
func (l *latencies) cut() {
	l.mu.Lock()
	n := len(l.untraced)
	l.blocks = append(l.blocks, l.untraced[l.open:n:n])
	l.open = n
	l.mu.Unlock()
}

func (l *latencies) reset() {
	l.mu.Lock()
	l.untraced, l.trace, l.blocks, l.open = nil, nil, nil, 0
	l.mu.Unlock()
}

func (l *latencies) into(r *report) {
	l.mu.Lock()
	r.lat, r.latTraced, r.latBlocks = l.untraced, l.trace, l.blocks
	l.mu.Unlock()
}

// memDelta measures the allocations one call makes.
func memDelta(fn func() error) (allocs, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

// coreProbe runs each cell through core.Run directly, outside the
// scheduler, and records the core and engine layer figures: allocations
// and bytes per run, events per run and wall ns per event.
func coreProbe(r *report, cells []cell) error {
	var allocs, bytes, events uint64
	var wall time.Duration
	for _, c := range cells {
		var res core.Result
		a, b, err := memDelta(func() (err error) {
			start := time.Now()
			res, err = core.Run(c.cfg, c.alg, c.setups)
			wall += time.Since(start)
			return err
		})
		if err != nil {
			return err
		}
		allocs, bytes, events = allocs+a, bytes+b, events+res.EventsFired
	}
	n := float64(len(cells))
	r.layers["core.allocs_per_run"] = float64(allocs) / n
	r.layers["core.bytes_per_run"] = float64(bytes) / n
	r.layers["sim.events"] = float64(events) / n
	if events > 0 {
		r.layers["sim.ns_per_event"] = float64(wall.Nanoseconds()) / float64(events)
	}
	return nil
}

// cell is one simulation's inputs.
type cell struct {
	cfg    core.Config
	alg    core.Algorithm
	setups []core.TaskSetup
}

// splitmix is the seed expander behind every generated input.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// sinceMS is the wall time since start in milliseconds.
func sinceMS(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

// checkf appends a failed check when cond is false and reports cond.
func (r *report) checkf(cond bool, format string, args ...any) bool {
	if !cond {
		r.failCheck(format, args...)
	}
	return cond
}
