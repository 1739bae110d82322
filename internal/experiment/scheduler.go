package experiment

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resil"
)

// This file is the cross-experiment run scheduler. Every simulation an
// experiment requests — one (config, algorithm, task setup, seed) cell —
// is flattened into its Scheduler's work queue, drained by that
// scheduler's worker pool, instead of each sweep spinning up its own.
// Identical runs are deduplicated at run granularity with single-flight
// semantics: the first requester enqueues the cell, later requesters join
// it, and the finished outcome is memoized for the life of the Scheduler
// (and, when a DiskCache is installed, across processes).
//
// Every cell is also a cancellable job: requesters wait with a context,
// the cell executes under a private context that is cancelled only when
// ALL its requesters have abandoned it, and a cancelled cell is evicted
// from the memo so a later identical request re-runs it. That is what
// lets the rmserved daemon kill queued or running jobs without leaking
// worker goroutines.

// RunOutcome is the cacheable summary of one simulation run: the §5.2
// metrics plus the cheap derived counts the batch experiments table.
// Full period records and adaptation traces are deliberately excluded —
// they are large, and no batch experiment consumes them.
type RunOutcome struct {
	Metrics metrics.RunMetrics `json:"metrics"`
	// Failovers counts the run's fail-over actions (ext-faults).
	Failovers int `json:"failovers"`
	// EventsFired is the engine's determinism fingerprint.
	EventsFired uint64 `json:"events_fired"`
}

// runEntry is one scheduled simulation: a single-flight cell of a
// Scheduler's run table. Whoever creates the entry enqueues it exactly
// once; every later requester receives the same entry and blocks on done.
type runEntry struct {
	key    string
	cfg    core.Config
	alg    core.Algorithm
	setups []core.TaskSetup

	// runCtx governs the cell's execution; cancelRun fires when the last
	// waiter abandons the cell (see Scheduler.abandon).
	runCtx    context.Context
	cancelRun context.CancelFunc

	// enqueuedAt is the wall-clock admission time; set only while a
	// WallObserver is installed (the zero value suppresses wait
	// reporting), so observability off means zero clock reads per run.
	enqueuedAt time.Time

	done     chan struct{}
	out      RunOutcome
	err      error
	finished bool // guarded by the scheduler mutex; set before done closes
	waiters  int  // guarded by the scheduler mutex; live requesters
}

// wait blocks until the entry's run completes.
func (e *runEntry) wait() (RunOutcome, error) {
	<-e.done
	return e.out, e.err
}

// waitCtx blocks until the run completes or ctx is done; abandoning a
// cell releases this requester's stake in it (the cell is cancelled once
// nobody is left waiting).
func (e *runEntry) waitCtx(ctx context.Context, s *Scheduler) (RunOutcome, error) {
	if ctx.Done() == nil {
		return e.wait()
	}
	select {
	case <-e.done:
		return e.out, e.err
	case <-ctx.Done():
		s.abandon(e)
		return RunOutcome{}, ctx.Err()
	}
}

// SchedulerCounters is a snapshot of a Scheduler's cumulative
// accounting. Requested = Deduped + MemoryHits + DiskHits + Simulated +
// Cancelled + Remote once every submitted run has resolved.
type SchedulerCounters struct {
	Requested  uint64 // run requests submitted, including duplicates
	Deduped    uint64 // joined an identical run already in flight
	MemoryHits uint64 // served from the in-process memo of finished runs
	DiskHits   uint64 // served from the persistent content-addressed cache
	Simulated  uint64 // actually executed
	Cancelled  uint64 // abandoned by every requester before completing
	Remote     uint64 // delegated to a remote rmserved daemon
}

// RemoteRunner executes one wire-expressible run against a remote
// rmserved daemon (see Scheduler.SetRemoteRunner).
type RemoteRunner func(ctx context.Context, req api.RunRequest) (RunOutcome, error)

// WallObserver receives wall-clock timings of scheduler activity — the
// serving path's view of the queue, entirely outside simulated time.
// Implementations must be safe for concurrent use (workers call them in
// parallel) and cheap: they run on the worker's critical path.
// obs.Metrics satisfies this interface.
type WallObserver interface {
	// CellQueued fires when a new run cell is admitted to the queue.
	CellQueued()
	// CellStarted fires when a worker picks the cell up, with the time it
	// spent waiting in the queue.
	CellStarted(wait time.Duration)
	// CellFinished fires when the cell resolves, with how it resolved
	// ("simulated", "disk_hit", "remote", "cancelled", "error") and the
	// wall-clock execution time.
	CellFinished(outcome string, run time.Duration)
	// DiskHit fires for each persistent-cache read that returned an
	// outcome, with the read's wall-clock latency.
	DiskHit(d time.Duration)
}

// plugins are a Scheduler's installable collaborators. A worker copies
// them under the mutex once per cell, so a setter never races a run.
type plugins struct {
	disk     *DiskCache
	remote   RemoteRunner
	observer WallObserver
	hook     func(cfg core.Config, alg core.Algorithm) error
}

// Scheduler owns one work queue, worker pool, run memo and sweep memo.
// Its owner — rmexperiments, an rmserved Server, a test — builds it with
// NewScheduler. Results never depend on which Scheduler, or which width,
// ran them: every run is independently seeded (the golden tests pin it).
type Scheduler struct {
	mu      sync.Mutex
	queue   []*runEntry
	entries map[string]*runEntry
	width   int // target worker-pool size
	workers int // live worker goroutines
	plugins plugins
	stats   SchedulerCounters
	sweeps  map[string]*sweepEntry // CachedSweep's memo
}

// NewScheduler returns an empty scheduler whose pool runs at most width
// simulations at once; width ≤ 0 means NumCPU. Width 1 is truly serial.
func NewScheduler(width int) *Scheduler {
	s := &Scheduler{entries: make(map[string]*runEntry), sweeps: make(map[string]*sweepEntry)}
	s.setWidth(width)
	return s
}

func (s *Scheduler) setWidth(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	s.mu.Lock()
	s.width = n
	s.mu.Unlock()
}

// SetDiskCache installs (or, with nil, removes) the persistent cache the
// scheduler consults before simulating and writes through after.
func (s *Scheduler) SetDiskCache(c *DiskCache) {
	s.mu.Lock()
	s.plugins.disk = c
	s.mu.Unlock()
}

// SetWallObserver installs (or, with nil, removes) the wall-clock
// observer the scheduler reports queue/run timings to.
func (s *Scheduler) SetWallObserver(o WallObserver) {
	s.mu.Lock()
	s.plugins.observer = o
	s.mu.Unlock()
}

// SetRemoteRunner installs (or, with nil, removes) a remote executor:
// runs whose (config, algorithm, setups) are expressible in the api wire
// schema are delegated to it instead of simulated locally — the
// rmexperiments -remote mode. Inexpressible runs still simulate locally.
func (s *Scheduler) SetRemoteRunner(fn RemoteRunner) {
	s.mu.Lock()
	s.plugins.remote = fn
	s.mu.Unlock()
}

// OnSimulate installs (or, with nil, removes) a hook that fires before
// each local simulation: the fault harness's seam into the run path. A
// non-nil error aborts the cell with that error; a panic reaches the
// worker's recovery boundary like any engine panic; a blocking hook holds
// the worker as long as a test needs. Production binaries never set it.
func (s *Scheduler) OnSimulate(fn func(cfg core.Config, alg core.Algorithm) error) {
	s.mu.Lock()
	s.plugins.hook = fn
	s.mu.Unlock()
}

// Stats snapshots the cumulative counters — the rmexperiments
// end-of-run summary and the daemon's /v1/stats read them.
func (s *Scheduler) Stats() SchedulerCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Run routes one simulation through the scheduler, blocking until its
// result is available or ctx is done. Identical runs — same config,
// algorithm and setups by content — execute once and share the outcome.
// When ctx is done the caller unblocks with ctx.Err(), and the cell is
// cancelled once every requester has abandoned it.
func (s *Scheduler) Run(ctx context.Context, cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) (RunOutcome, error) {
	return s.submit(cfg, alg, setups).waitCtx(ctx, s)
}

// submit registers one run and returns its entry without waiting, so
// callers can flatten a whole batch into the queue before blocking.
func (s *Scheduler) submit(cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) *runEntry {
	key := runFingerprint(cfg, alg, setups)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Requested++
	if e, ok := s.entries[key]; ok {
		if e.finished {
			s.stats.MemoryHits++
		} else {
			s.stats.Deduped++
			e.waiters++
		}
		return e
	}
	e := &runEntry{key: key, cfg: cfg, alg: alg, setups: setups, done: make(chan struct{}), waiters: 1}
	e.runCtx, e.cancelRun = context.WithCancel(context.Background())
	if s.plugins.observer != nil {
		e.enqueuedAt = time.Now()
		s.plugins.observer.CellQueued()
	}
	s.entries[key] = e
	s.queue = append(s.queue, e)
	if s.workers < s.width {
		s.workers++
		go s.worker()
	}
	return e
}

// abandon releases one requester's stake in a cell. The last live
// requester to leave cancels the cell's execution and evicts it from the
// memo, so a future identical request re-runs instead of joining a
// corpse.
func (s *Scheduler) abandon(e *runEntry) {
	s.mu.Lock()
	e.waiters--
	var cancel context.CancelFunc
	if e.waiters <= 0 && !e.finished {
		cancel = e.cancelRun
		if s.entries[e.key] == e {
			delete(s.entries, e.key)
		}
	}
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// worker drains the queue FIFO. The pool is elastic: submit spawns
// workers on demand up to the target width, and a worker exits when the
// queue is empty or the target has shrunk below the live count, so idle
// workers cost nothing and serial mode (width 1) is truly serial.
func (s *Scheduler) worker() {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 || s.workers > s.width {
			s.workers--
			s.mu.Unlock()
			return
		}
		e := s.queue[0]
		s.queue = s.queue[1:]
		p := s.plugins
		s.mu.Unlock()
		s.execute(e, p)
	}
}

// isCancel reports whether err is a context cancellation.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Cell outcome kinds, as reported to the WallObserver and mapped onto
// SchedulerCounters by finish.
const (
	cellSimulated = "simulated"
	cellDiskHit   = "disk_hit"
	cellRemote    = "remote"
	cellCancelled = "cancelled"
	cellError     = "error"
)

// execute resolves one entry: cancellation first, persistent cache
// second, remote delegation third, local simulation last. p.observer,
// when non-nil, receives the cell's wall-clock wait and run timings.
func (s *Scheduler) execute(e *runEntry, p plugins) {
	var started time.Time
	if p.observer != nil {
		started = time.Now()
		if !e.enqueuedAt.IsZero() {
			p.observer.CellStarted(started.Sub(e.enqueuedAt))
		}
	}
	if err := e.runCtx.Err(); err != nil {
		s.finish(e, RunOutcome{}, err, cellCancelled, p.observer, started)
		return
	}
	if p.disk != nil {
		out, ok := p.disk.Get(e.key)
		if ok {
			if p.observer != nil {
				p.observer.DiskHit(time.Since(started))
			}
			s.finish(e, out, nil, cellDiskHit, p.observer, started)
			return
		}
	}
	if p.remote != nil {
		if req, ok := EncodeRunRequest(e.cfg, e.alg, e.setups); ok {
			out, err := p.remote(e.runCtx, req)
			if isCancel(err) {
				s.finish(e, RunOutcome{}, err, cellCancelled, p.observer, started)
				return
			}
			if err == nil && p.disk != nil {
				_ = p.disk.Put(e.key, out)
			}
			s.finish(e, out, err, cellRemote, p.observer, started)
			return
		}
	}
	out, err := simulateRecovering(e.runCtx, e.cfg, e.alg, e.setups, p.hook)
	if isCancel(err) {
		s.finish(e, RunOutcome{}, err, cellCancelled, p.observer, started)
		return
	}
	if err == nil && p.disk != nil {
		// Best effort: a failed write only costs a future re-simulation.
		_ = p.disk.Put(e.key, out)
	}
	s.finish(e, out, err, cellSimulated, p.observer, started)
}

// simulateRecovering is the worker pool's panic boundary: a panicking
// simulation becomes a structured job failure (stack attached) instead
// of killing the process, and the worker goroutine — having recovered —
// simply continues its drain loop, which is what "replacing" the worker
// amounts to in an elastic pool.
func simulateRecovering(ctx context.Context, cfg core.Config, alg core.Algorithm, setups []core.TaskSetup, hook func(core.Config, core.Algorithm) error) (out RunOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = RunOutcome{}, resil.NewPanicError(r)
		}
	}()
	return simulate(ctx, cfg, alg, setups, hook)
}

func (s *Scheduler) finish(e *runEntry, out RunOutcome, err error, kind string, observer WallObserver, started time.Time) {
	s.mu.Lock()
	e.out, e.err = out, err
	e.finished = true
	// A finished entry is memoized for the life of the scheduler; keep
	// only its outcome, not the inputs and context that produced it.
	e.cfg, e.setups = core.Config{}, nil
	e.runCtx, e.cancelRun = nil, nil
	if (isCancel(err) || resil.IsTransient(err)) && s.entries[e.key] == e {
		// Never memoize a cancellation or a transient failure: the next
		// identical request must re-execute — a dead waiter's context
		// error and an I/O flake are both properties of one attempt, not
		// of the cell. Deterministic errors stay memoized: the same
		// config and seed would fail identically, so a retry is waste.
		delete(s.entries, e.key)
	}
	switch kind {
	case cellCancelled:
		s.stats.Cancelled++
	case cellDiskHit:
		s.stats.DiskHits++
	case cellRemote:
		s.stats.Remote++
	default:
		s.stats.Simulated++
	}
	s.mu.Unlock()
	if observer != nil {
		// The observer sees failures as their own outcome; the counters
		// keep attributing them to the path that produced them.
		if err != nil && !isCancel(err) {
			kind = cellError
		}
		observer.CellFinished(kind, time.Since(started))
	}
	close(e.done)
}

// simulate is the single place experiment code executes core.Run.
func simulate(ctx context.Context, cfg core.Config, alg core.Algorithm, setups []core.TaskSetup, hook func(core.Config, core.Algorithm) error) (RunOutcome, error) {
	if hook != nil {
		if err := hook(cfg, alg); err != nil {
			return RunOutcome{}, err
		}
	}
	res, err := core.RunContext(ctx, cfg, alg, setups)
	if err != nil {
		return RunOutcome{}, err
	}
	return RunOutcome{Metrics: res.Metrics, EventsFired: res.EventsFired, Failovers: res.Failovers}, nil
}
