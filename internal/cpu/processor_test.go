package cpu

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const ms = sim.Millisecond

func newProc(t *testing.T) (*sim.Engine, *Processor) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewProcessor(eng, 0, DefaultSlice)
}

func TestLoneJobRunsToCompletion(t *testing.T) {
	eng, p := newProc(t)
	j := &Job{Name: "solo", Demand: 10 * ms}
	p.Submit(j)
	eng.Run()
	if !j.Done() {
		t.Fatal("job not done")
	}
	if j.Latency() != 10*ms {
		t.Errorf("latency = %v, want 10ms", j.Latency())
	}
	if got := eng.EventsFired(); got != 1 {
		t.Errorf("fast path fired %d events, want 1", got)
	}
	if p.BusyTime() != 10*ms {
		t.Errorf("BusyTime = %v", p.BusyTime())
	}
	if p.Completed() != 1 {
		t.Errorf("Completed = %d", p.Completed())
	}
}

func TestRoundRobinInterleavesEqualJobs(t *testing.T) {
	eng, p := newProc(t)
	a := &Job{Name: "a", Demand: 3 * ms}
	b := &Job{Name: "b", Demand: 3 * ms}
	p.Submit(a)
	p.Submit(b)
	eng.Run()
	// A[0,1) B[1,2) A[2,3) B[3,4) A[4,5) done, B[5,6) done.
	if a.CompletedAt != 5*ms {
		t.Errorf("a completed at %v, want 5ms", a.CompletedAt)
	}
	if b.CompletedAt != 6*ms {
		t.Errorf("b completed at %v, want 6ms", b.CompletedAt)
	}
}

func TestArrivalTruncatesExtendedBurst(t *testing.T) {
	eng, p := newProc(t)
	a := &Job{Name: "a", Demand: 10 * ms}
	b := &Job{Name: "b", Demand: 2 * ms}
	p.Submit(a)
	eng.Schedule(2500*sim.Microsecond, func() { p.Submit(b) })
	eng.Run()
	// A runs [0,3) alone (burst cut at the 3ms slice boundary), then RR:
	// B[3,4) A[4,5) B[5,6) done; A alone again, remaining 6ms → done at 12.
	if b.CompletedAt != 6*ms {
		t.Errorf("b completed at %v, want 6ms", b.CompletedAt)
	}
	if a.CompletedAt != 12*ms {
		t.Errorf("a completed at %v, want 12ms", a.CompletedAt)
	}
	if p.BusyTime() != 12*ms {
		t.Errorf("BusyTime = %v, want 12ms (work conserving)", p.BusyTime())
	}
}

func TestArrivalExactlyOnBoundaryRotatesImmediately(t *testing.T) {
	eng, p := newProc(t)
	a := &Job{Name: "a", Demand: 10 * ms}
	b := &Job{Name: "b", Demand: 1 * ms}
	p.Submit(a)
	eng.Schedule(3*ms, func() { p.Submit(b) })
	eng.Run()
	// The arrival lands exactly on a virtual slice boundary of the
	// extended burst; the boundary belongs to the arrival, so A rotates
	// at 3ms and B runs [3,4) — exactly as literal slicing would order it.
	if b.CompletedAt != 4*ms {
		t.Errorf("b completed at %v, want 4ms", b.CompletedAt)
	}
	if a.CompletedAt != 11*ms {
		t.Errorf("a completed at %v, want 11ms", a.CompletedAt)
	}
}

func TestZeroDemandCompletesImmediately(t *testing.T) {
	eng, p := newProc(t)
	var doneAt sim.Time = -1
	j := &Job{Name: "zero", Demand: 0, OnComplete: func(at sim.Time) { doneAt = at }}
	eng.Schedule(7*ms, func() { p.Submit(j) })
	eng.Run()
	if doneAt != 7*ms {
		t.Errorf("zero-demand job completed at %v, want 7ms", doneAt)
	}
	if j.Latency() != 0 {
		t.Errorf("latency = %v", j.Latency())
	}
}

func TestNegativeDemandPanics(t *testing.T) {
	eng, p := newProc(t)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Error("negative demand did not panic")
		}
	}()
	p.Submit(&Job{Demand: -1})
}

func TestNonPositiveSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero slice did not panic")
		}
	}()
	NewProcessor(sim.NewEngine(), 0, 0)
}

func TestLatencyOfUnfinishedJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Latency of unfinished job did not panic")
		}
	}()
	(&Job{Demand: ms}).Latency()
}

func TestOnCompleteCallback(t *testing.T) {
	eng, p := newProc(t)
	var got sim.Time = -1
	p.Submit(&Job{Demand: 4 * ms, OnComplete: func(at sim.Time) { got = at }})
	eng.Run()
	if got != 4*ms {
		t.Errorf("OnComplete at %v, want 4ms", got)
	}
}

func TestBusyTimeIncludesInProgressBurst(t *testing.T) {
	eng, p := newProc(t)
	p.Submit(&Job{Demand: 10 * ms})
	checked := false
	eng.Schedule(4*ms, func() {
		if p.BusyTime() != 4*ms {
			t.Errorf("BusyTime mid-burst = %v, want 4ms", p.BusyTime())
		}
		checked = true
	})
	eng.Run()
	if !checked {
		t.Fatal("mid-burst check did not run")
	}
}

func TestIdleProcessorState(t *testing.T) {
	_, p := newProc(t)
	if p.Completed() != 0 || p.BusyTime() != 0 || p.Failed() {
		t.Error("fresh processor not idle")
	}
	if p.ID() != 0 || p.Slice() != DefaultSlice {
		t.Error("identity accessors wrong")
	}
}

func TestMeter(t *testing.T) {
	eng, p := newProc(t)
	m := NewMeter(eng, p)
	p.Submit(&Job{Demand: 5 * ms})
	eng.RunUntil(10 * ms)
	if got := m.Sample(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	eng.RunUntil(20 * ms) // idle decade
	if got := m.Sample(); got != 0 {
		t.Errorf("idle utilization = %v, want 0", got)
	}
	if got := m.Sample(); got != 0 {
		t.Errorf("zero-interval sample = %v, want 0", got)
	}
}

// refArrival is one job submission fed to the reference scheduler.
type refArrival struct {
	at     sim.Time
	demand sim.Time
	idx    int
}

// refRun is what a literal slice-by-slice round-robin simulation
// observed: each job's first dispatch and completion, and every interval
// in which the CPU served work. It validates the event-driven
// scheduler's fast path.
type refRun struct {
	start, done []sim.Time
	busy        [][2]sim.Time
}

// busyAt returns the CPU time served by instant t.
func (r refRun) busyAt(t sim.Time) sim.Time {
	var sum sim.Time
	for _, iv := range r.busy {
		if iv[0] < t {
			sum += min(iv[1], t) - iv[0]
		}
	}
	return sum
}

func refSchedule(arrivals []refArrival, slice sim.Time) refRun {
	run := refRun{start: make([]sim.Time, len(arrivals)), done: make([]sim.Time, len(arrivals))}
	started := make([]bool, len(arrivals))
	pending := append([]refArrival(nil), arrivals...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
	type rj struct {
		rem sim.Time
		idx int
	}
	var queue []rj
	var t sim.Time
	for len(queue) > 0 || len(pending) > 0 {
		if len(queue) == 0 {
			t = pending[0].at
		}
		// Admit arrivals at or before t.
		for len(pending) > 0 && pending[0].at <= t {
			queue = append(queue, rj{pending[0].demand, pending[0].idx})
			pending = pending[1:]
		}
		if len(queue) == 0 {
			continue
		}
		j := queue[0]
		if !started[j.idx] {
			started[j.idx] = true
			run.start[j.idx] = t
		}
		burst := min(slice, j.rem)
		run.busy = append(run.busy, [2]sim.Time{t, t + burst})
		t += burst
		j.rem -= burst
		// Arrivals at or before the boundary enqueue behind the current
		// membership but ahead of the rotated job (the boundary belongs
		// to the arrival, matching the scheduler's truncation rule).
		queue = queue[1:]
		for len(pending) > 0 && pending[0].at <= t {
			queue = append(queue, rj{pending[0].demand, pending[0].idx})
			pending = pending[1:]
		}
		if j.rem == 0 {
			run.done[j.idx] = t
		} else {
			queue = append(queue, j)
		}
	}
	return run
}

// Property: the event-driven scheduler with its extended-burst fast path
// matches literal 1 ms slicing — every job's first dispatch and
// completion, and the busy time at seeded probe instants. Arrivals land
// on a 0.5 ms grid, so many hit slice boundaries, or at arbitrary
// nanoseconds with up to 8 jobs in flight. Arrivals and probes are all
// scheduled before the run: at a shared instant they fire ahead of the
// processor's own events, which is the order the reference models.
func TestPropertyMatchesStrictSlicingReference(t *testing.T) {
	for _, mode := range []struct {
		name    string
		maxJobs uint64
		arrival func(r *rand.Rand) (at, demand sim.Time)
	}{
		{"grid", 6, func(r *rand.Rand) (sim.Time, sim.Time) {
			return sim.Time(r.Uint64()%20) * ms / 2, sim.Time(1+r.Uint64()%10) * ms
		}},
		{"nanosecond", 8, func(r *rand.Rand) (sim.Time, sim.Time) {
			return sim.Time(r.Uint64() % uint64(10*ms)), sim.Time(1 + r.Uint64()%uint64(10*ms))
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			f := func(seed uint64) bool {
				r := sim.NewRand(seed, 17)
				arrivals := make([]refArrival, 1+r.Uint64()%mode.maxJobs)
				horizon := 10 * ms
				for i := range arrivals {
					at, demand := mode.arrival(r)
					arrivals[i] = refArrival{at: at, demand: demand, idx: i}
					horizon += demand
				}
				want := refSchedule(arrivals, DefaultSlice)

				eng := sim.NewEngine()
				p := NewProcessor(eng, 0, DefaultSlice)
				jobs := make([]*Job, len(arrivals))
				for i, a := range arrivals {
					j := &Job{Demand: a.demand}
					jobs[i] = j
					eng.Schedule(a.at, func() { p.Submit(j) })
				}
				probes := make([]sim.Time, 8)
				busy := make([]sim.Time, len(probes))
				for k := range probes {
					k := k
					probes[k] = sim.Time(r.Uint64() % uint64(horizon))
					eng.Schedule(probes[k], func() { busy[k] = p.BusyTime() })
				}
				eng.Run()
				ok := true
				for i, j := range jobs {
					if !j.Done() || j.StartedAt != want.start[i] || j.CompletedAt != want.done[i] {
						t.Logf("seed %d: job %d ran %v..%v, reference %v..%v (arrivals %+v)",
							seed, i, j.StartedAt, j.CompletedAt, want.start[i], want.done[i], arrivals)
						ok = false
					}
				}
				for k, at := range probes {
					if ref := want.busyAt(at); busy[k] != ref {
						t.Logf("seed %d: BusyTime at %v = %v, reference %v (arrivals %+v)", seed, at, busy[k], ref, arrivals)
						ok = false
					}
				}
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: work conservation — the processor is never idle while work is
// pending, so the last completion equals first arrival + total demand when
// all arrivals land before the backlog drains.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(demands []uint8) bool {
		if len(demands) == 0 {
			return true
		}
		eng := sim.NewEngine()
		p := NewProcessor(eng, 0, DefaultSlice)
		var total sim.Time
		var last sim.Time
		for _, d := range demands {
			demand := sim.Time(1+int64(d)%16) * ms
			total += demand
			p.Submit(&Job{Demand: demand, OnComplete: func(at sim.Time) {
				if at > last {
					last = at
				}
			}})
		}
		eng.Run()
		return last == total && p.BusyTime() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFailDropsQueuedWork(t *testing.T) {
	eng, p := newProc(t)
	var completed int
	for i := 0; i < 3; i++ {
		p.Submit(&Job{Demand: 10 * ms, OnComplete: func(sim.Time) { completed++ }})
	}
	eng.Schedule(5*ms, func() { p.Fail() })
	eng.Run()
	if completed != 0 {
		t.Errorf("%d jobs completed after crash", completed)
	}
	if !p.Failed() {
		t.Error("Failed() = false")
	}
	if p.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3 (running + queued)", p.Dropped())
	}
	// Work before the crash stays accounted.
	if p.BusyTime() != 5*ms {
		t.Errorf("BusyTime = %v, want 5ms", p.BusyTime())
	}
}

func TestSubmitWhileFailedDropped(t *testing.T) {
	eng, p := newProc(t)
	p.Fail()
	done := false
	p.Submit(&Job{Demand: ms, OnComplete: func(sim.Time) { done = true }})
	eng.Run()
	if done {
		t.Error("job completed on failed processor")
	}
	if p.Dropped() != 1 {
		t.Errorf("Dropped = %d", p.Dropped())
	}
}

func TestRecoverRestoresService(t *testing.T) {
	eng, p := newProc(t)
	p.Fail()
	p.Recover()
	if p.Failed() {
		t.Fatal("still failed after Recover")
	}
	done := false
	p.Submit(&Job{Demand: 2 * ms, OnComplete: func(sim.Time) { done = true }})
	eng.Run()
	if !done {
		t.Error("job did not complete after recovery")
	}
}

func TestFailIdempotent(t *testing.T) {
	eng, p := newProc(t)
	p.Submit(&Job{Demand: 10 * ms})
	eng.RunUntil(3 * ms)
	p.Fail()
	p.Fail()
	if p.BusyTime() != 3*ms {
		t.Errorf("double Fail double-counted busy time: %v", p.BusyTime())
	}
}
