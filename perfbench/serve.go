package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/resil"
	"repro/internal/server"
)

// daemon is an in-process rmserved over real loopback HTTP.
type daemon struct {
	srv  *server.Server
	ts   *httptest.Server
	once sync.Once
}

// startDaemon starts rmserved with its journal and run cache live on an
// in-memory filesystem: the program's journal and cache code runs in
// full, and the host disk's fsync latency stays out of the measurement.
func startDaemon(nproc int) (*daemon, error) {
	srv, err := server.New(server.Options{
		Workers:     nproc,
		Parallelism: nproc,
		DataDir:     "rmserved-data",
		FS:          newMemFS(),
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv)}, nil
}

// close drains the daemon, stops its listener and detaches it from the
// process-global scheduler. It is safe to call more than once.
func (d *daemon) close() {
	d.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = d.srv.Drain(ctx) // every client has returned; nothing is in flight
		d.ts.Close()
		experiment.SetWallObserver(nil)
		experiment.SetDiskCache(nil)
	})
}

// scrape reads the daemon's /v1/metrics exposition and returns every
// sample's value summed over its labels, keyed by metric name.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.ts.URL + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// meanMS is a histogram's mean, in ms, from its growth over the
// measured phase.
func meanMS(growth map[string]float64, hist string) float64 {
	n := growth[hist+"_count"]
	if n <= 0 {
		return 0
	}
	return growth[hist+"_sum"] * 1e3 / n
}

// wire counts one load-generating client's HTTP traffic: requests,
// rejections (429 and 503), other non-2xx responses, transport errors,
// and response body bytes.
type wire struct {
	base                            http.RoundTripper
	requests, rejected, bad, broken atomic.Int64
	bytes                           atomic.Int64
}

func (w *wire) RoundTrip(req *http.Request) (*http.Response, error) {
	w.requests.Add(1)
	resp, err := w.base.RoundTrip(req)
	switch {
	case err != nil:
		w.broken.Add(1)
		return nil, err
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		w.rejected.Add(1)
	case resp.StatusCode/100 != 2:
		w.bad.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newClient builds one load-generating client with its own connection
// pool and traffic counters.
func newClient(base string) (*client.Client, *wire) {
	w := &wire{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: w})), w
}

// figInvocation is one `rmexperiments -remote -run <fig>` invocation:
// the runs it delegates to the daemon, in the order it sends them.
type figInvocation struct {
	fig  string
	reqs []api.RunRequest
	keys []string // each request's JSON encoding
}

// recordRemoteTraffic captures the requests rmexperiments -remote sends
// when the fig9-fig13 suite is run one figure per invocation: each figure
// runs from a cold memo with a remote runner installed, which is the path
// -remote takes, and the runner records every request it is handed
// (encoded by experiment.EncodeRunRequest) and answers it with a direct
// simulation of the materialized request. Recording is serial, so the
// order is the scheduler's submission order. Figures share sweeps
// (fig10 reruns fig9's, fig13 reruns fig11's and fig12's), so the suite
// asks the daemon again for runs it has already served: those are the
// repeats of the serve-mixed stream.
func recordRemoteTraffic() ([]figInvocation, error) {
	var (
		mu   sync.Mutex
		cur  *figInvocation
		seen = map[string]experiment.RunOutcome{}
	)
	experiment.SetRemoteRunner(func(_ context.Context, req api.RunRequest) (experiment.RunOutcome, error) {
		enc, err := json.Marshal(req)
		if err != nil {
			return experiment.RunOutcome{}, err
		}
		key := string(enc)
		mu.Lock()
		cur.reqs, cur.keys = append(cur.reqs, req), append(cur.keys, key)
		out, ok := seen[key]
		mu.Unlock()
		if ok {
			return out, nil
		}
		cfg, alg, setups, err := experiment.MaterializeRun(req)
		if err != nil {
			return experiment.RunOutcome{}, err
		}
		res, err := core.Run(cfg, alg, setups)
		if err != nil {
			return experiment.RunOutcome{}, err
		}
		out = experiment.RunOutcome{Metrics: res.Metrics, EventsFired: res.EventsFired}
		mu.Lock()
		seen[key] = out
		mu.Unlock()
		return out, nil
	})
	defer func() {
		experiment.SetRemoteRunner(nil)
		experiment.ResetSweepCache()
	}()
	var invs []figInvocation
	for _, id := range figSuite {
		x, err := experiment.ByID(id)
		if err != nil {
			return nil, err
		}
		experiment.ResetSweepCache()
		cur = &figInvocation{fig: id}
		if _, err := x.Run(experiment.Context{Parallelism: 1}); err != nil {
			return nil, fmt.Errorf("recording %s: %w", id, err)
		}
		invs = append(invs, *cur)
	}
	return invs, nil
}

// servePerm is the order in which pass p runs the suite's invocations,
// drawn from the workload seed.
func servePerm(seed uint64, p, n int) []int {
	rng := splitmix(seed ^ uint64(p+1)*0x9e3779b97f4a7c15)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// runServeMixed replays the traffic rmexperiments -remote sends for the
// fig9-fig13 suite against an in-process rmserved. One pass is the five
// figure invocations in a seeded order, each sent by nproc closed-loop
// clients (SubmitRun, then Wait) and finished before the next starts, as
// one -parallel nproc invocation after another would be. A run's first
// request simulates, appends to the journal and writes the cache; the
// suite's reruns are served from the scheduler's memo. Every pass gets a
// new daemon and a cold memo, started and stopped outside the timed
// pass, so each daemon holds the same number of jobs however fast the
// pass runs. The unit of work is one completed job; an operation's
// latency is submit to terminal state.
//
// Every end-to-end figure is a median over passes, latency included:
// taken over all the window's jobs, the p99 tail spread by 0.14 to 0.28
// over ten runs on a shared 2-core host while the pass rate stayed
// within its bound. A pass holds 428 jobs, so its tail is p97.5, with 10
// jobs beyond it.
func runServeMixed(e *env) (*report, error) {
	r := &report{layers: map[string]float64{}, tailCap: 99}
	invs, err := recordRemoteTraffic()
	if err != nil {
		return nil, err
	}
	if err := timeSetup(r, func() (func(), error) {
		d, err := startDaemon(e.nproc)
		if err != nil {
			return nil, err
		}
		return d.close, nil
	}); err != nil {
		return nil, err
	}

	var (
		mu      sync.Mutex
		results = map[string][]byte{} // request JSON → encoded result
		diverge []string
	)
	lat := &latencies{}
	var attempted, failed, retries, rejected atomic.Int64
	// send runs one invocation's requests through the clients and
	// returns when every one of them has reached a terminal state.
	send := func(inv figInvocation, clients []*client.Client, wires []*wire, measure bool) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(cl *client.Client, w *wire) {
				defer wg.Done()
				ctx := context.Background()
				for {
					k := int(next.Add(1) - 1)
					if k >= len(inv.reqs) {
						return
					}
					traced := e.tr.active()
					reqs0, rej0, bad0, broken0 := w.requests.Load(), w.rejected.Load(), w.bad.Load(), w.broken.Load()
					t0 := time.Now()
					j, err := cl.SubmitRun(ctx, inv.reqs[k])
					t1 := time.Now()
					if err == nil {
						j, err = cl.Wait(ctx, j.ID)
					}
					t2 := time.Now()
					if !measure {
						continue
					}
					attempted.Add(1)
					extra := w.requests.Load() - reqs0 - 2 // one submit, one event stream
					retries.Add(max(extra, 0))
					rejected.Add(w.rejected.Load() - rej0)
					ok := err == nil && j.State == api.JobDone && j.Run != nil && extra == 0 &&
						w.rejected.Load() == rej0 && w.bad.Load() == bad0 && w.broken.Load() == broken0
					if ok {
						enc, _ := json.Marshal(j.Run) // a RunResult always encodes
						mu.Lock()
						if prev, seen := results[inv.keys[k]]; !seen {
							results[inv.keys[k]] = enc
						} else if string(prev) != string(enc) {
							ok = false
							diverge = append(diverge, fmt.Sprintf("%s request %d", inv.fig, k))
						}
						mu.Unlock()
					}
					if !ok {
						failed.Add(1)
						continue
					}
					lat.add(float64(t2.Sub(t0).Nanoseconds())/1e6, traced)
					e.tr.span("client.SubmitRun", t0, t1)
					e.tr.span("client.Wait", t1, t2)
				}
			}(clients[c], wires[c])
		}
		wg.Wait()
	}
	// metricSums accumulates each daemon's /v1/metrics growth over its
	// pass.
	metricSums := map[string]float64{}
	// pass runs the suite once against a new daemon from a cold memo and
	// returns the timed part's wall and CPU seconds.
	pass := func(p int, measure bool) (secs, cpu float64, err error) {
		experiment.ResetSweepCache()
		d, err := startDaemon(e.nproc)
		if err != nil {
			return 0, 0, err
		}
		defer d.close()
		clients := make([]*client.Client, e.nproc)
		wires := make([]*wire, e.nproc)
		for i := range clients {
			clients[i], wires[i] = newClient(d.ts.URL)
		}
		defer func() {
			for _, w := range wires {
				w.base.(*http.Transport).CloseIdleConnections()
			}
		}()
		before, err := d.scrape()
		if err != nil {
			return 0, 0, err
		}
		c0 := cpuSeconds()
		t0 := time.Now()
		for _, i := range servePerm(e.seed, p, len(invs)) {
			send(invs[i], clients, wires, measure)
		}
		secs, cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
		after, err := d.scrape()
		if err != nil {
			return 0, 0, err
		}
		for k, v := range after {
			metricSums[k] += v - before[k]
		}
		return secs, cpu, nil
	}
	if _, _, err := pass(0, false); err != nil { // warm-up, not measured
		return nil, err
	}
	clear(metricSums)

	var passRate, passCPU []float64
	st0 := experiment.SchedulerStats()
	heap := watchHeap()
	e.tr.startProfiling()
	deadline := time.Now().Add(e.seconds)
	for p := 1; time.Now().Before(deadline); p++ {
		done0 := attempted.Load() - failed.Load()
		secs, cpu, err := pass(p, true)
		if err != nil {
			return nil, err
		}
		passRate = append(passRate, float64(attempted.Load()-failed.Load()-done0)/secs)
		passCPU = append(passCPU, cpu)
		lat.cut()
	}
	e.tr.stopProfiling()
	heap.finish(r)
	lat.into(r)
	st1 := experiment.SchedulerStats()

	r.attempted, r.failed = attempted.Load(), failed.Load()
	r.workPerS = median(passRate)
	r.cpuPerPass = median(passCPU)
	for _, f := range diverge {
		r.failCheck("%s: repeated jobs returned different results", f)
	}

	if e.tr != nil {
		passes := float64(len(passRate))
		requested := float64(st1.Requested - st0.Requested)
		simulated := float64(st1.Simulated - st0.Simulated)
		r.layers["experiment.cells_requested"] = requested / passes
		r.layers["experiment.cells_simulated"] = simulated / passes
		r.layers["experiment.cells_memory_hits"] = float64(st1.MemoryHits-st0.MemoryHits) / passes
		r.layers["experiment.cells_deduped"] = float64(st1.Deduped-st0.Deduped) / passes
		if requested > 0 {
			r.layers["experiment.sim_per_request"] = simulated / requested
		}
		r.layers["server.submit_ms"] = e.tr.meanMS("client.SubmitRun")
		r.layers["server.wait_ms"] = e.tr.meanMS("client.Wait")
		r.layers["server.queue_wait_ms"] = meanMS(metricSums, "obs_sched_cell_wait_seconds")
		r.layers["server.cell_run_ms"] = meanMS(metricSums, "obs_sched_cell_run_seconds")
		r.layers["server.disk_cache_hit_ms"] = meanMS(metricSums, "obs_disk_cache_hit_seconds")
		r.layers["server.rejected"] = float64(rejected.Load())
		r.layers["client.retries"] = float64(retries.Load())
		var probe []cell
		for _, req := range invs[0].reqs {
			cfg, alg, setups, err := experiment.MaterializeRun(req)
			if err != nil {
				return nil, err
			}
			probe = append(probe, cell{cfg, alg, setups})
		}
		if err := coreProbe(r, probe); err != nil {
			return nil, err
		}
		if err := e.tr.attributeLayers(r); err != nil {
			return nil, err
		}
	}

	// Every job's result must equal an in-process scheduled run of the
	// same request, simulated afresh from a cold memo with no daemon
	// attached.
	experiment.ResetSweepCache()
	for _, inv := range invs {
		for k, req := range inv.reqs {
			enc, ok := results[inv.keys[k]]
			if !ok {
				continue
			}
			delete(results, inv.keys[k])
			cfg, alg, setups, err := experiment.MaterializeRun(req)
			if err != nil {
				return nil, err
			}
			out, err := experiment.ScheduledRun(cfg, alg, setups)
			if err != nil {
				return nil, err
			}
			want, _ := json.Marshal(experiment.OutcomeToAPI(out))
			if string(want) != string(enc) {
				r.failed++
				r.failCheck("%s request %d: served result differs from experiment.ScheduledRun", inv.fig, k)
			}
		}
	}
	return r, nil
}

// memFS is an in-memory resil.FS for the daemon's journal and run
// cache. It keeps file names but drops every byte written: a daemon
// reads its journal back only when it restarts, which these workloads
// never do, and reads a cache entry only on a memo miss, which within
// one daemon's life comes only for runs it has not simulated yet.
// Keeping the bytes would grow the heap the benchmark measures with
// data that on a real host lives on disk. A read of a kept name fails,
// which the cache treats as a miss.
type memFS struct {
	mu    sync.Mutex
	names map[string]bool
	temps int
}

func newMemFS() *memFS { return &memFS{names: map[string]bool{}} }

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.names[path] {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return nil, &fs.PathError{Op: "read", Path: path, Err: errors.ErrUnsupported}
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.names[oldpath] {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.names, oldpath)
	m.names[newpath] = true
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.names, path)
	return nil
}

func (m *memFS) CreateTemp(dir, pattern string) (resil.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.temps++
	name := filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(m.temps), 1))
	m.names[name] = true
	return memFile(name), nil
}

func (m *memFS) OpenAppend(path string) (resil.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.names[path] = true
	return memFile(path), nil
}

// memFile is an open memFS file: writes are accepted and dropped.
type memFile string

func (f memFile) Name() string                { return string(f) }
func (f memFile) Sync() error                 { return nil }
func (f memFile) Close() error                { return nil }
func (f memFile) Write(p []byte) (int, error) { return len(p), nil }
