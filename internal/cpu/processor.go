// Package cpu models the processors of the paper's system (§3, Table 1):
// homogeneous nodes, each with a private memory and a round-robin CPU
// scheduler with a 1 ms time slice.
//
// The scheduler is event-driven and exact: a lone job runs to completion
// without per-slice events (a fast path that changes nothing observable),
// and the moment a second job arrives the in-progress burst is truncated
// at the next slice boundary so round-robin interleaving proceeds
// precisely as it would with per-slice events.
package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// DefaultSlice is the round-robin quantum from Table 1.
const DefaultSlice = 1 * sim.Millisecond

// Job is a unit of CPU demand submitted to a Processor. OnComplete, if
// non-nil, runs when the job's entire demand has been served.
type Job struct {
	Name       string
	Demand     sim.Time
	OnComplete func(completedAt sim.Time)

	remaining   sim.Time
	SubmittedAt sim.Time
	StartedAt   sim.Time // first time the job got the CPU
	CompletedAt sim.Time
	started     bool
	done        bool
}

// Done reports whether the job has completed.
func (j *Job) Done() bool { return j.done }

// Latency returns completion time minus submission time; it panics if the
// job has not completed.
func (j *Job) Latency() sim.Time {
	if !j.done {
		panic(fmt.Sprintf("cpu: Latency of unfinished job %q", j.Name))
	}
	return j.CompletedAt - j.SubmittedAt
}

// jobRing is a circular ready queue: popping the head and rotating the
// running job to the tail are index updates, not slice reallocations, so
// steady-state round-robin interleaving allocates nothing.
type jobRing struct {
	buf  []*Job
	head int
	n    int
}

func (r *jobRing) len() int { return r.n }

func (r *jobRing) push(j *Job) {
	if r.n == len(r.buf) {
		size := 2 * len(r.buf)
		if size < 4 {
			size = 4
		}
		buf := make([]*Job, size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = j
	r.n++
}

func (r *jobRing) front() *Job { return r.buf[r.head] }

func (r *jobRing) popFront() *Job {
	j := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return j
}

// rotate moves the running head job to the tail (round-robin).
func (r *jobRing) rotate() { r.push(r.popFront()) }

// reset empties the ring, dropping references so jobs can be collected.
func (r *jobRing) reset() {
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)%len(r.buf)] = nil
	}
	r.head, r.n = 0, 0
}

// Processor is a single CPU with a round-robin ready queue.
type Processor struct {
	eng   *sim.Engine
	id    int
	slice sim.Time

	queue        jobRing // queue front is running when busy
	busy         bool
	burstStart   sim.Time
	burstPlanned sim.Time
	burstTimer   sim.Timer
	onBurstEnd   func() // cached method closure: one alloc per processor, not per burst

	cumBusy   sim.Time
	completed uint64

	failed  bool
	dropped uint64 // jobs lost to failures (in queue or submitted while down)

	observer JobObserver
}

// NewProcessor returns a processor with the given id and RR slice.
func NewProcessor(eng *sim.Engine, id int, slice sim.Time) *Processor {
	if slice <= 0 {
		panic(fmt.Sprintf("cpu: non-positive slice %v", slice))
	}
	p := &Processor{eng: eng, id: id, slice: slice}
	p.onBurstEnd = p.burstEnd
	return p
}

// ID returns the processor's identifier.
func (p *Processor) ID() int { return p.id }

// SetObserver installs a completion observer (see Scheduler.SetObserver).
func (p *Processor) SetObserver(fn JobObserver) { p.observer = fn }

// Slice returns the round-robin quantum.
func (p *Processor) Slice() sim.Time { return p.slice }

// Completed returns the number of jobs finished so far.
func (p *Processor) Completed() uint64 { return p.completed }

// Fail crashes the processor: the running burst and every queued job are
// lost (their OnComplete callbacks never fire), and jobs submitted while
// down are dropped. Work served before the crash stays accounted.
func (p *Processor) Fail() {
	if p.failed {
		return
	}
	p.failed = true
	if p.busy {
		// Account the partial burst that executed before the crash.
		p.cumBusy += p.eng.Now() - p.burstStart
		p.burstTimer.Cancel()
		p.busy = false
	}
	p.dropped += uint64(p.queue.len())
	p.queue.reset()
}

// Recover brings a failed processor back with an empty queue.
func (p *Processor) Recover() { p.failed = false }

// Failed reports whether the processor is down.
func (p *Processor) Failed() bool { return p.failed }

// Dropped returns the number of jobs lost to failures.
func (p *Processor) Dropped() uint64 { return p.dropped }

// Submit enqueues a job. Zero-demand jobs complete immediately. Jobs
// submitted to a failed processor are dropped silently (the caller
// observes the loss as a missing completion, exactly like a real crash).
func (p *Processor) Submit(j *Job) {
	if j.Demand < 0 {
		panic(fmt.Sprintf("cpu: job %q with negative demand %v", j.Name, j.Demand))
	}
	if p.failed {
		p.dropped++
		return
	}
	now := p.eng.Now()
	j.SubmittedAt = now
	j.remaining = j.Demand
	j.started, j.done = false, false // allow Job reuse across submissions
	if j.Demand == 0 {
		j.started, j.done = true, true
		j.StartedAt, j.CompletedAt = now, now
		p.completed++
		if p.observer != nil {
			p.observer(p.id, j)
		}
		if j.OnComplete != nil {
			j.OnComplete(now)
		}
		return
	}
	p.queue.push(j)
	if !p.busy {
		p.dispatch()
		return
	}
	// A competitor arrived during an extended (lone-job) burst: truncate
	// the burst at the enclosing slice boundary so RR interleaving resumes
	// exactly as it would under literal per-slice scheduling. An arrival
	// landing precisely on a virtual boundary rotates the running job
	// immediately (the boundary belongs to the arrival).
	if p.burstPlanned > p.slice {
		elapsed := now - p.burstStart
		n := sim.CeilDiv(elapsed, p.slice)
		if n == 0 {
			n = 1
		}
		boundary := p.burstStart + sim.Time(n)*p.slice
		plannedEnd := p.burstStart + p.burstPlanned
		if boundary < plannedEnd {
			p.burstTimer.Cancel()
			p.burstPlanned = boundary - p.burstStart
			p.burstTimer = p.eng.Schedule(boundary, p.onBurstEnd)
		}
	}
}

// dispatch starts the job at the head of the queue, if any.
func (p *Processor) dispatch() {
	if p.queue.len() == 0 {
		p.busy = false
		return
	}
	p.busy = true
	j := p.queue.front()
	if !j.started {
		j.started = true
		j.StartedAt = p.eng.Now()
	}
	burst := j.remaining
	if p.queue.len() > 1 && burst > p.slice {
		burst = p.slice
	}
	p.burstStart = p.eng.Now()
	p.burstPlanned = burst
	p.burstTimer = p.eng.After(burst, p.onBurstEnd)
}

// burstEnd accounts the finished burst, completing or rotating the job.
func (p *Processor) burstEnd() {
	j := p.queue.front()
	j.remaining -= p.burstPlanned
	p.cumBusy += p.burstPlanned
	if j.remaining <= 0 {
		p.queue.popFront()
		j.done = true
		j.CompletedAt = p.eng.Now()
		p.completed++
		p.dispatch()
		if p.observer != nil {
			p.observer(p.id, j)
		}
		if j.OnComplete != nil {
			j.OnComplete(j.CompletedAt)
		}
		return
	}
	// Rotate to the tail (round-robin) unless alone.
	if p.queue.len() > 1 {
		p.queue.rotate()
	}
	p.dispatch()
}

// BusyTime returns the cumulative CPU time served, including the
// in-progress burst.
func (p *Processor) BusyTime() sim.Time {
	t := p.cumBusy
	if p.busy {
		t += p.eng.Now() - p.burstStart
	}
	return t
}

// Meter samples a scheduler's utilization over successive intervals, as
// the run-time monitor does once per task period.
type Meter struct {
	eng      *sim.Engine
	s        Scheduler
	lastBusy sim.Time
	lastAt   sim.Time
}

// NewMeter returns a meter anchored at the current time.
func NewMeter(eng *sim.Engine, s Scheduler) *Meter {
	return &Meter{eng: eng, s: s, lastBusy: s.BusyTime(), lastAt: eng.Now()}
}

// Sample returns the utilization (0..1) since the previous Sample (or
// since the meter's creation) and re-anchors the meter. A zero-length
// interval yields 0.
func (m *Meter) Sample() float64 {
	now := m.eng.Now()
	busy := m.s.BusyTime()
	dt := now - m.lastAt
	db := busy - m.lastBusy
	m.lastAt, m.lastBusy = now, busy
	if dt <= 0 {
		return 0
	}
	return float64(db) / float64(dt)
}
