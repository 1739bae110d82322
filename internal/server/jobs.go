package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// job is the server-side state of one submitted run or sweep. Its
// event stream publishes the wire view (api.Job) on every state
// transition, numbered from 1.
type job struct {
	id   string
	kind string // "run" | "sweep"

	run   api.RunRequest
	sweep api.SweepRequest
	// fingerprint is the run's content address (run jobs only), stamped
	// at submission so clients and the journal can correlate resubmitted
	// work across daemon restarts.
	fingerprint string

	mu       sync.Mutex
	state    string
	errMsg   string
	attempts int
	seq      uint64 // frames published so far; the latest is the SSE event id
	runRes   *api.RunResult
	sweepRes *api.SweepResult
	created  time.Time
	started  time.Time
	finished time.Time
	hub      session.Hub

	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}
}

// snapshot renders the wire view under the job's lock.
func (j *job) snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *job) snapshotLocked() api.Job {
	out := api.Job{
		SchemaVersion: api.SchemaVersion,
		ID:            j.id,
		Kind:          j.kind,
		State:         j.state,
		Error:         j.errMsg,
		Attempts:      j.attempts,
		Fingerprint:   j.fingerprint,
		CreatedMS:     j.created.UnixMilli(),
		Run:           j.runRes,
		Sweep:         j.sweepRes,
	}
	if !j.started.IsZero() {
		out.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		out.FinishedMS = j.finished.UnixMilli()
	}
	return out
}

// publishLocked publishes the current wire view as the stream's next
// frame — its own resync point, since a job frame is the whole job. A
// terminal frame closes the stream and then done.
func (j *job) publishLocked() {
	j.seq++
	snap := j.snapshotLocked()
	ev := api.Event{Type: api.EventJob, Seq: j.seq, Job: &snap}
	if api.TerminalState(j.state) {
		j.hub.Close(ev)
		close(j.done)
		return
	}
	j.hub.Publish(ev, ev)
}

// transition moves the job to a new state and publishes it. Publishing
// under the job's lock keeps frames in transition order; it never
// blocks, however slow the subscribers.
func (j *job) transition(state string, mutate func(*job)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if api.TerminalState(j.state) {
		// A cancel racing a completion: first terminal state wins.
		return
	}
	j.state = state
	if mutate != nil {
		mutate(j)
	}
	j.publishLocked()
}

// execute drives the job to a terminal state, retrying transient
// failures with capped exponential backoff. It is called on a worker
// goroutine holding a concurrency slot.
func (s *Server) execute(j *job) {
	log := s.log.With(obs.ContextAttrs(j.ctx)...)
	for {
		var attempt int
		j.transition(api.JobRunning, func(j *job) {
			if j.started.IsZero() {
				j.started = s.now()
			}
			j.errMsg = ""
			j.attempts++
			attempt = j.attempts
		})
		s.journalMark(journalRecord{Type: "start", Job: j.id, MS: s.now().UnixMilli()})
		log.Info("job running", "kind", j.kind, "attempt", attempt)

		start := s.now()
		err := s.runAttempt(j)
		s.observeRun(s.now().Sub(start))
		if err == nil {
			s.finish(j, api.JobDone, "")
			log.Info("job finished", "state", api.JobDone, "attempts", attempt)
			return
		}

		if p, ok := resil.IsPanic(err); ok {
			// The worker recovered; the daemon is intact and only this job
			// fails. The stack goes to the log — the wire error stays short.
			s.counter("rmserved_job_panics_total")
			log.Error("job worker panicked", "kind", j.kind, "panic", fmt.Sprint(p.Value), "stack", string(p.Stack))
		}
		if j.ctx.Err() != nil {
			s.finish(j, api.JobCancelled, err.Error())
			log.Info("job finished", "state", api.JobCancelled, "error", err.Error())
			return
		}
		if resil.IsTransient(err) && attempt < s.opts.Retry.MaxAttempts() {
			delay := s.opts.Retry.Delay(attempt)
			s.counter("rmserved_job_retries_total", telemetry.Label{Key: "kind", Value: j.kind})
			j.transition(api.JobRetrying, func(j *job) { j.errMsg = err.Error() })
			log.Warn("job retrying", "attempt", attempt, "delay_ms", delay.Milliseconds(), "error", err.Error())
			if s.opts.Sleep(j.ctx, delay) == nil {
				continue
			}
			// Cancelled mid-backoff: resolve immediately rather than
			// burning a worker slot on an attempt doomed by a dead context.
			s.finish(j, api.JobCancelled, j.ctx.Err().Error())
			log.Info("job finished", "state", api.JobCancelled)
			return
		}
		s.finish(j, api.JobFailed, err.Error())
		log.Info("job finished", "state", api.JobFailed, "attempts", attempt, "error", err.Error())
		return
	}
}

// runAttempt executes the job's work once under the per-job deadline.
// On success the result is stored on the job and nil returned; the
// terminal transition stays with execute, so SSE subscribers never see
// a result on a non-terminal frame.
func (s *Server) runAttempt(j *job) error {
	ctx := j.ctx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	switch j.kind {
	case "run":
		cfg, alg, setups, merr := experiment.MaterializeRun(j.run)
		if merr != nil {
			// Validation passed at submission, so this is unreachable
			// short of a schema drift; fail the job rather than panic.
			return merr
		}
		out, err := s.sched.Run(ctx, cfg, alg, setups)
		if err != nil {
			return s.deadlineError(ctx, j, err)
		}
		res := experiment.OutcomeToAPI(out)
		j.mu.Lock()
		j.runRes = &res
		j.mu.Unlock()
		return nil
	case "sweep":
		factory, ferr := experiment.SweepFactory(j.sweep.Pattern)
		if ferr != nil {
			return ferr
		}
		results, err := s.sched.Sweep(ctx, j.sweep.Points, factory, j.sweep.Seeds)
		if err != nil {
			return s.deadlineError(ctx, j, err)
		}
		res := experiment.SweepToAPI(results)
		j.mu.Lock()
		j.sweepRes = &res
		j.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("server: unknown job kind %q", j.kind)
	}
}

// deadlineError distinguishes "the attempt's deadline expired" from
// "the job was cancelled": when the attempt context died but the job
// context is still live, the per-job timeout fired. Timeouts are
// deterministic for a given spec — re-running the same work against the
// same deadline loses the same race — so they fail the job, not retry.
func (s *Server) deadlineError(ctx context.Context, j *job, err error) error {
	if ctx.Err() != nil && j.ctx.Err() == nil {
		return fmt.Errorf("server: job exceeded -job-timeout %v: %w", s.opts.JobTimeout, err)
	}
	return err
}
