package cpu

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/sim"
)

// BackgroundLoad drives a processor to a target utilization, as the
// profiling experiments of §4.2.1.1 require ("the execution latencies of
// the application subtasks are profiled for a number of resource
// utilization conditions").
//
// It models a self-paced CPU-bound process: it computes for target·q, then
// sleeps for (1−target)·q, where q is the duty-cycle granularity. When the
// node is otherwise idle the achieved utilization equals the target
// exactly; when a foreground job contends under round-robin, the
// background's compute phases stretch while its sleeps do not, so a
// foreground job of demand D observes latency ≈ D·(1+u) — a smooth,
// strictly monotone contention relationship for the regression to fit.
type BackgroundLoad struct {
	eng     *sim.Engine
	proc    Scheduler
	quantum sim.Time
	target  float64
	jitter  float64
	rng     *rand.Rand

	running bool

	// Steady-state cycling allocates nothing: one Job struct is reused
	// across chunks (the next submit strictly follows the previous
	// completion), and the wake/complete callbacks are cached closures.
	job      Job
	onCycle  func()
	sleep    sim.Time
	wake     sim.Timer
	inFlight bool
}

// NewBackgroundLoad returns a stopped background load with the given
// duty-cycle quantum. rng may be nil for a deterministic, jitter-free
// load.
func NewBackgroundLoad(eng *sim.Engine, proc Scheduler, quantum sim.Time, rng *rand.Rand) *BackgroundLoad {
	if quantum <= 0 {
		panic(fmt.Sprintf("cpu: non-positive background quantum %v", quantum))
	}
	b := &BackgroundLoad{eng: eng, proc: proc, quantum: quantum, rng: rng}
	b.onCycle = b.cycle
	b.job.Name = "background"
	b.job.OnComplete = b.computeDone
	return b
}

// SetTarget sets the desired utilization fraction in [0, 0.95].
func (b *BackgroundLoad) SetTarget(u float64) {
	if u < 0 || u > 0.95 {
		panic(fmt.Sprintf("cpu: background target %v out of [0,0.95]", u))
	}
	b.target = u
}

// SetJitter sets multiplicative demand jitter amplitude in [0, 1); it is
// ignored when the load was built without an rng.
func (b *BackgroundLoad) SetJitter(amp float64) { b.jitter = amp }

// Start begins the compute/sleep cycle; it is a no-op if already running.
func (b *BackgroundLoad) Start() {
	if b.running {
		return
	}
	b.running = true
	if b.inFlight {
		// The in-flight chunk's completion resumes the cycle; starting a
		// second chain would double-submit the shared Job.
		return
	}
	b.cycle()
}

// Stop ceases after the in-flight compute chunk, if any. A pending sleep
// or idle-poll wake-up is cancelled.
func (b *BackgroundLoad) Stop() {
	b.running = false
	b.wake.Cancel()
}

func (b *BackgroundLoad) cycle() {
	if !b.running {
		return
	}
	if b.target == 0 {
		// Idle poll: re-check the target each quantum so a later
		// SetTarget takes effect.
		b.wake = b.eng.After(b.quantum, b.onCycle)
		return
	}
	compute := sim.Time(b.target * float64(b.quantum))
	if b.rng != nil && b.jitter > 0 {
		compute = sim.JitterTime(b.rng, compute, b.jitter)
	}
	b.sleep = b.quantum - sim.Time(b.target*float64(b.quantum))
	if compute <= 0 {
		b.wake = b.eng.After(b.quantum, b.onCycle)
		return
	}
	b.inFlight = true
	b.job.Demand = compute
	b.proc.Submit(&b.job)
}

// computeDone is the shared Job's completion callback.
func (b *BackgroundLoad) computeDone(sim.Time) {
	b.inFlight = false
	if !b.running {
		return
	}
	if b.sleep > 0 {
		b.wake = b.eng.After(b.sleep, b.onCycle)
	} else {
		b.cycle()
	}
}
