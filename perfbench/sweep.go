package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
)

// figSuite is the evaluation-figure suite rmexperiments renders into
// results/fig9-13, at full (non-quick) size.
var figSuite = []string{"fig9", "fig10", "fig11", "fig12", "fig13"}

// suiteCells is the unit of work of sweep-cold: the number of cells the
// suite requests from the scheduler in one pass, as counted when the
// benchmark was defined. It is a fixed scale, not a count taken from the
// run, so a pass that serves more of its cells from the memo or by
// deduplication reads as more work per second, not as less work.
const suiteCells = 216

// runSweepCold renders the full fig9-fig13 suite over and over, in the
// order rmexperiments renders it, each pass from a cold scheduler memo,
// at scheduler parallelism nproc. Its inputs are the paper's figures, so
// the seed does not change them: figures share sweeps (fig9/fig10,
// fig11/fig13a, fig12/fig13b), and a seeded figure order changed how
// many cells were queued at once, and with it the cell latencies. The
// unit of work is one of the suiteCells cells a pass requests; an
// operation's latency is a cell's time from queued to done, read through
// the scheduler's wall observer.
func runSweepCold(e *env) (*report, error) {
	r := &report{layers: map[string]float64{}, tailCap: 99}
	var exps []experiment.Experiment
	if err := timeSetup(r, func() (func(), error) {
		exps = exps[:0]
		for _, id := range figSuite {
			x, err := experiment.ByID(id)
			if err != nil {
				return nil, err
			}
			exps = append(exps, x)
		}
		return nil, nil
	}); err != nil {
		return nil, err
	}
	want, err := loadGolden(figSuite)
	if err != nil {
		return nil, err
	}

	lat := &latencies{}
	obs := &cellObserver{lat: lat, tr: e.tr}
	experiment.SetWallObserver(obs)
	defer experiment.SetWallObserver(nil)
	ctx := experiment.Context{Parallelism: e.nproc}

	// pass renders the suite once from a cold memo and checks every
	// rendered file against the committed results.
	pass := func() (secs float64, st experiment.SchedulerCounters, ok bool, err error) {
		experiment.ResetSweepCache()
		before := experiment.SchedulerStats()
		start := time.Now()
		outs := make([]experiment.Output, len(exps))
		bufs := make([]bytes.Buffer, len(exps))
		for i := range exps {
			t0 := time.Now()
			outs[i], err = exps[i].Run(ctx)
			t1 := time.Now()
			e.tr.span("experiment.Run", t0, t1)
			if err != nil {
				return 0, st, false, err
			}
			if err = outs[i].Render(&bufs[i]); err != nil {
				return 0, st, false, err
			}
			e.tr.span("experiment.Render", t1, time.Now())
		}
		secs = time.Since(start).Seconds()
		after := experiment.SchedulerStats()
		st = experiment.SchedulerCounters{
			Requested:  after.Requested - before.Requested,
			Deduped:    after.Deduped - before.Deduped,
			MemoryHits: after.MemoryHits - before.MemoryHits,
			Simulated:  after.Simulated - before.Simulated,
		}
		ok = true
		for i, o := range outs {
			for name, got := range renderedFiles(o, bufs[i].Bytes()) {
				ok = r.checkf(bytes.Equal(got, want[name]), "%s differs from results/%s", name, name) && ok
			}
		}
		return secs, st, ok, nil
	}

	if _, _, _, err := pass(); err != nil { // warm-up, not measured
		return nil, err
	}
	obs.reset()
	var passSecs, passCPU, passRate []float64
	var cells, requested, deduped, memHits float64
	heap := watchHeap()
	e.tr.startProfiling()
	deadline := time.Now().Add(e.seconds)
	for time.Now().Before(deadline) {
		c0 := cpuSeconds()
		secs, st, ok, err := pass()
		passCPU = append(passCPU, cpuSeconds()-c0)
		r.attempted++
		if err != nil {
			r.failed++
			r.failCheck("pass: %v", err)
			continue
		}
		if !ok {
			r.failed++
		}
		passSecs = append(passSecs, secs)
		passRate = append(passRate, suiteCells/secs)
		cells += float64(st.Simulated)
		requested += float64(st.Requested)
		deduped += float64(st.Deduped)
		memHits += float64(st.MemoryHits)
	}
	e.tr.stopProfiling()
	heap.finish(r)
	lat.into(r)

	r.workPerS = median(passRate)
	r.cpuPerPass = median(passCPU)
	if e.tr != nil {
		n := float64(len(passSecs))
		r.layers["experiment.cells_requested"] = requested / n
		r.layers["experiment.cells_simulated"] = cells / n
		r.layers["experiment.cells_memory_hits"] = memHits / n
		r.layers["experiment.cells_deduped"] = deduped / n
		if requested > 0 {
			r.layers["experiment.sim_per_request"] = cells / requested
		}
		r.layers["experiment.cell_wait_ms"] = median(obs.waits)
		r.layers["experiment.cell_run_ms"] = median(obs.runs)
		runS, _ := e.tr.total("experiment.Run")
		renderS, _ := e.tr.total("experiment.Render")
		r.layers["experiment.run_s"] = runS / n
		r.layers["experiment.render_s"] = renderS / n
		probe, err := sweepCells(e.seed)
		if err != nil {
			return nil, err
		}
		r.layers["experiment.fingerprint_us"] = fingerprintUS(probe)
		if err := coreProbe(r, probe); err != nil {
			return nil, err
		}
		if err := e.tr.attributeLayers(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// loadGolden reads the committed rendering of each experiment:
// results/<id>.txt and its CSVs (<id>.csv, or <id>-1.csv, <id>-2.csv...
// for multi-table experiments).
func loadGolden(ids []string) (map[string][]byte, error) {
	want := map[string][]byte{}
	for _, id := range ids {
		names := []string{id + ".txt", id + ".csv"}
		if _, err := os.Stat(filepath.Join("results", id+".csv")); err != nil {
			names = names[:1]
			for i := 1; ; i++ {
				n := fmt.Sprintf("%s-%d.csv", id, i)
				if _, err := os.Stat(filepath.Join("results", n)); err != nil {
					break
				}
				names = append(names, n)
			}
		}
		for _, n := range names {
			b, err := os.ReadFile(filepath.Join("results", n))
			if err != nil {
				return nil, fmt.Errorf("reading committed results: %w", err)
			}
			want[n] = b
		}
	}
	return want, nil
}

// renderedFiles names an experiment's outputs as rmexperiments -out
// writes them: the rendered text and one CSV per table.
func renderedFiles(o experiment.Output, txt []byte) map[string][]byte {
	files := map[string][]byte{o.ID + ".txt": txt}
	for i, t := range o.Tables {
		name := o.ID + ".csv"
		if len(o.Tables) > 1 {
			name = fmt.Sprintf("%s-%d.csv", o.ID, i+1)
		}
		var b bytes.Buffer
		_ = t.WriteCSV(&b) // a bytes.Buffer write cannot fail
		files[name] = b.Bytes()
	}
	return files
}

// sweepCells is a representative set of sweep cells for the traced
// run's direct probes: the triangular sweep at every figure point, under
// both algorithms the figures compare.
func sweepCells(seed uint64) ([]cell, error) {
	rng := splitmix(seed)
	var cells []cell
	for u := 0; u < 36; u++ {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			s, err := experiment.BenchmarkSetup(experiment.TriangularFactory(u * experiment.WorkloadUnit))
			if err != nil {
				return nil, err
			}
			cfg := core.DefaultConfig()
			cfg.Seed = rng.next()
			cells = append(cells, cell{cfg: cfg, alg: alg, setups: []core.TaskSetup{s}})
		}
	}
	return cells, nil
}

// fingerprintUS times experiment.Fingerprint over the cells, in µs per
// fingerprint.
func fingerprintUS(cells []cell) float64 {
	const reps = 5
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, c := range cells {
			_ = experiment.Fingerprint(c.cfg, c.alg, c.setups)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(reps*len(cells))
}

// cellObserver is the scheduler's wall observer during the sweep. The
// scheduler reports a cell's queue wait when a worker picks it up and its
// run time when it finishes, on the same worker goroutine; the observer
// pairs the two by start time to get each cell's queued-to-done latency.
type cellObserver struct {
	lat *latencies
	tr  *tracer

	mu    sync.Mutex
	open  []openCell // started, not finished: at most one per worker
	waits []float64
	runs  []float64
}

type openCell struct {
	queued, started time.Time
	traced          bool
}

func (o *cellObserver) reset() {
	o.mu.Lock()
	o.open, o.waits, o.runs = o.open[:0], nil, nil
	o.mu.Unlock()
	o.lat.reset()
}

func (o *cellObserver) CellQueued() {}

func (o *cellObserver) CellStarted(wait time.Duration) {
	now := time.Now()
	o.mu.Lock()
	o.open = append(o.open, openCell{queued: now.Add(-wait), started: now, traced: o.tr.active()})
	o.mu.Unlock()
}

func (o *cellObserver) CellFinished(_ string, run time.Duration) {
	now := time.Now()
	began := now.Add(-run)
	o.mu.Lock()
	best := -1
	for i, c := range o.open {
		if best < 0 || absDur(c.started.Sub(began)) < absDur(o.open[best].started.Sub(began)) {
			best = i
		}
	}
	if best < 0 { // started before the observer was installed
		o.mu.Unlock()
		return
	}
	c := o.open[best]
	o.open = append(o.open[:best], o.open[best+1:]...)
	o.waits = append(o.waits, float64(c.started.Sub(c.queued).Nanoseconds())/1e6)
	o.runs = append(o.runs, float64(run.Nanoseconds())/1e6)
	o.mu.Unlock()
	o.lat.add(float64(now.Sub(c.queued).Nanoseconds())/1e6, c.traced)
	o.tr.span("experiment.cell", c.queued, now)
}

func (o *cellObserver) DiskHit(time.Duration) {}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
