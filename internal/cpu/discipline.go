package cpu

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Discipline selects the CPU scheduling policy. Table 1 fixes round-robin
// with a 1 ms slice; FIFO and processor sharing are ablation alternatives
// (PS is the fluid limit of round-robin as the slice shrinks to zero).
type Discipline int

// Scheduling disciplines.
const (
	RoundRobin Discipline = iota
	FIFO
	ProcessorSharing
)

func (d Discipline) String() string {
	switch d {
	case RoundRobin:
		return "round-robin"
	case FIFO:
		return "fifo"
	case ProcessorSharing:
		return "processor-sharing"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// JobObserver sees every job the moment it completes, with its
// SubmittedAt/StartedAt/CompletedAt timestamps final. Core's observation
// stream hooks in here so queue-wait accounting covers all work on the
// node — including background load — not just the jobs the facade
// submits. It runs before the job's own OnComplete callback.
type JobObserver func(procID int, j *Job)

// Scheduler is the per-processor policy abstraction: Processor implements
// it for round-robin and FIFO; PSProcessor implements processor sharing.
type Scheduler interface {
	ID() int
	Submit(j *Job)
	SetObserver(fn JobObserver)
	BusyTime() sim.Time
	Completed() uint64
	Fail()
	Recover()
	Failed() bool
	Dropped() uint64
}

// NewScheduler builds a scheduler of the given discipline. The slice is
// ignored for FIFO and processor sharing.
func NewScheduler(eng *sim.Engine, id int, slice sim.Time, d Discipline) Scheduler {
	switch d {
	case RoundRobin:
		return NewProcessor(eng, id, slice)
	case FIFO:
		// FIFO is round-robin with an unbounded quantum: the head job
		// always runs to completion and arrivals never truncate it.
		return NewProcessor(eng, id, sim.Time(1)<<56)
	case ProcessorSharing:
		return NewPSProcessor(eng, id)
	default:
		panic(fmt.Sprintf("cpu: unknown discipline %v", d))
	}
}

// PSProcessor is an ideal processor-sharing CPU: all n active jobs
// progress simultaneously at rate 1/n. Events occur only at arrivals and
// completions, so it is also the cheapest discipline to simulate.
type PSProcessor struct {
	eng *sim.Engine
	id  int

	active     []*psJob
	lastUpdate sim.Time
	timer      sim.Timer
	onDue      func()   // cached method closure: one alloc per processor
	done       []*psJob // scratch reused across completeDue calls
	free       *psJob   // recycled psJob nodes

	cumBusy   sim.Time
	completed uint64
	failed    bool
	dropped   uint64

	observer JobObserver
}

type psJob struct {
	job       *Job
	remaining float64 // ns of pure demand left
	nextFree  *psJob
}

// NewPSProcessor returns an idle processor-sharing CPU.
func NewPSProcessor(eng *sim.Engine, id int) *PSProcessor {
	p := &PSProcessor{eng: eng, id: id}
	p.onDue = p.completeDue
	return p
}

// newPSJob takes a node from the free list or allocates one.
func (p *PSProcessor) newPSJob(j *Job) *psJob {
	a := p.free
	if a != nil {
		p.free = a.nextFree
		a.nextFree = nil
	} else {
		a = &psJob{}
	}
	a.job = j
	a.remaining = float64(j.Demand)
	return a
}

// freePSJob returns a node to the free list.
func (p *PSProcessor) freePSJob(a *psJob) {
	a.job = nil
	a.nextFree = p.free
	p.free = a
}

// ID implements Scheduler.
func (p *PSProcessor) ID() int { return p.id }

// SetObserver implements Scheduler.
func (p *PSProcessor) SetObserver(fn JobObserver) { p.observer = fn }

// Completed implements Scheduler.
func (p *PSProcessor) Completed() uint64 { return p.completed }

// Failed implements Scheduler.
func (p *PSProcessor) Failed() bool { return p.failed }

// Dropped implements Scheduler.
func (p *PSProcessor) Dropped() uint64 { return p.dropped }

// advance applies the elapsed fluid progress to every active job.
func (p *PSProcessor) advance() {
	now := p.eng.Now()
	elapsed := now - p.lastUpdate
	p.lastUpdate = now
	n := len(p.active)
	if n == 0 || elapsed == 0 {
		return
	}
	p.cumBusy += elapsed
	share := float64(elapsed) / float64(n)
	for _, a := range p.active {
		a.remaining -= share
	}
}

// reschedule plans the next completion event.
func (p *PSProcessor) reschedule() {
	p.timer.Cancel()
	p.timer = sim.Timer{}
	n := len(p.active)
	if n == 0 {
		return
	}
	min := p.active[0].remaining
	for _, a := range p.active[1:] {
		if a.remaining < min {
			min = a.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	// Round the wall-clock wait up: truncating down can schedule a
	// zero-delay event that makes no fluid progress and loops forever.
	wall := sim.Time(math.Ceil(min * float64(n)))
	p.timer = p.eng.After(wall, p.onDue)
}

// completeDue finishes every job whose fluid remaining has drained.
func (p *PSProcessor) completeDue() {
	p.advance()
	// Sub-nanosecond residue from float division counts as done.
	const eps = 0.5
	// Partition in place: still-active nodes compact to the front of
	// p.active, drained ones collect in the reusable done scratch.
	done := p.done[:0]
	still := p.active[:0]
	for _, a := range p.active {
		if a.remaining <= eps {
			done = append(done, a)
		} else {
			still = append(still, a)
		}
	}
	for i := len(still); i < len(p.active); i++ {
		p.active[i] = nil
	}
	p.active = still
	now := p.eng.Now()
	for _, a := range done {
		a.job.done = true
		a.job.CompletedAt = now
		a.job.remaining = 0
		p.completed++
	}
	p.reschedule()
	for _, a := range done {
		j := a.job
		p.freePSJob(a)
		if p.observer != nil {
			p.observer(p.id, j)
		}
		if j.OnComplete != nil {
			j.OnComplete(now)
		}
	}
	for i := range done {
		done[i] = nil
	}
	p.done = done[:0]
}

// Submit implements Scheduler.
func (p *PSProcessor) Submit(j *Job) {
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
	p.advance()
	j.started = true
	j.StartedAt = now
	p.active = append(p.active, p.newPSJob(j))
	p.reschedule()
}

// BusyTime implements Scheduler.
func (p *PSProcessor) BusyTime() sim.Time {
	t := p.cumBusy
	if len(p.active) > 0 {
		t += p.eng.Now() - p.lastUpdate
	}
	return t
}

// Fail implements Scheduler: active fluid work is lost.
func (p *PSProcessor) Fail() {
	if p.failed {
		return
	}
	p.advance()
	p.failed = true
	p.dropped += uint64(len(p.active))
	for i, a := range p.active {
		p.freePSJob(a)
		p.active[i] = nil
	}
	p.active = p.active[:0]
	p.timer.Cancel()
	p.timer = sim.Timer{}
}

// Recover implements Scheduler.
func (p *PSProcessor) Recover() {
	p.failed = false
	p.lastUpdate = p.eng.Now()
}

// Compile-time checks: both processor types satisfy Scheduler.
var (
	_ Scheduler = (*Processor)(nil)
	_ Scheduler = (*PSProcessor)(nil)
)
