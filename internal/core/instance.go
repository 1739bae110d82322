package core

import (
	"repro/internal/cpu"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// instance is one in-flight period of a task. Replica placement is frozen
// at launch; adaptation between periods changes only future instances.
//
// Instances are recycled through the owning runtimeTask's free list: the
// slice storage, the period record's included, survives across periods,
// so a steady-state period launch allocates nothing.
type instance struct {
	rt  *runtimeTask
	rec task.PeriodRecord

	placements [][]int // per stage
	shares     [][]int // per stage, input items per replica (without halo)
	halo       []int   // per stage, halo items each replica receives on top

	pendingJobs []int   // outstanding CPU jobs per stage
	pendingMsgs [][]int // per stage, per replica, inputs still in flight
	readyCount  []int   // replicas of the stage whose inputs are complete

	// epoch is the system's nodeEpoch at launch: a completion whose epoch
	// is stale straddled a crash or recovery, and its observations are
	// tainted for adaptation purposes (Degradation.StalenessWindow).
	epoch int

	nextFree *instance
}

// replicaJob carries one replica execution's context plus its embedded
// cpu.Job. Pooled on the system so a steady-state submit allocates
// nothing: the completion callback is bound once, at node creation.
type replicaJob struct {
	s          *system
	inst       *instance
	stage, idx int
	proc       int
	demand     sim.Time
	job        cpu.Job
	nextFree   *replicaJob
}

// taskMsg carries one inter-stage message's delivery context; pooled like
// replicaJob, with the OnDeliver callback bound once. One taskMsg is one
// logical handoff: under Degradation.DeliveryTimeout it may put several
// physical copies on the wire (retransmissions), so it tracks how many
// are outstanding and whether the handoff already succeeded — the first
// delivery wins, duplicates are discarded, and the context returns to
// the pool only when no copy can still reference it.
type taskMsg struct {
	s        *system
	inst     *instance
	stage    int // destination stage
	destIdx  int
	from, to int
	payload  int64

	attempt     int  // retransmissions so far
	outstanding int  // physical copies queued or in flight
	done        bool // first delivery happened; duplicates are ignored
	abandoned   bool // retry budget exhausted
	watchdog    sim.Timer
	onTimeout   func() // bound once to timeout

	nextFree *taskMsg
}

// newReplicaJob takes a context from the free list, or allocates one and
// binds its completion callback.
func (s *system) newReplicaJob() *replicaJob {
	rj := s.freeRJ
	if rj == nil {
		rj = &replicaJob{s: s}
		rj.job.OnComplete = rj.onComplete
		return rj
	}
	s.freeRJ = rj.nextFree
	rj.nextFree = nil
	return rj
}

func (s *system) freeReplicaJob(rj *replicaJob) {
	rj.inst = nil
	rj.nextFree = s.freeRJ
	s.freeRJ = rj
}

func (s *system) newTaskMsg() *taskMsg {
	tm := s.freeTM
	if tm == nil {
		tm = &taskMsg{s: s}
		tm.onTimeout = tm.timeout
		return tm
	}
	s.freeTM = tm.nextFree
	tm.nextFree = nil
	return tm
}

func (s *system) freeTaskMsg(tm *taskMsg) {
	tm.inst = nil
	tm.attempt = 0
	tm.done, tm.abandoned = false, false
	tm.watchdog = sim.Timer{}
	tm.nextFree = s.freeTM
	s.freeTM = tm
}

// maybeFree returns the handoff context to the pool once it is settled
// (delivered or abandoned) and no physical copy can still point at it.
func (tm *taskMsg) maybeFree() {
	if tm.outstanding == 0 && (tm.done || tm.abandoned) {
		tm.s.freeTaskMsg(tm)
	}
}

// newInstance recycles an instance from rt's free list (resizing its
// per-stage storage for the current replica counts) or builds a fresh
// one, and resets its period record. Nothing retains the record past
// completion: the monitor's input is a copy (runtimeTask.lastRec).
func (s *system) newInstance(rt *runtimeTask, c, items, n int) *instance {
	now := s.eng.Now()
	inst := rt.freeInst
	if inst == nil {
		inst = &instance{
			placements:  make([][]int, n),
			shares:      make([][]int, n),
			halo:        make([]int, n),
			pendingJobs: make([]int, n),
			pendingMsgs: make([][]int, n),
			readyCount:  make([]int, n),
			rec:         task.PeriodRecord{Stages: make([]task.StageObservation, n)},
		}
	} else {
		rt.freeInst = inst.nextFree
		inst.nextFree = nil
	}
	inst.rt = rt
	inst.epoch = s.nodeEpoch
	stages := inst.rec.Stages
	clear(stages)
	inst.rec = task.PeriodRecord{
		Period:     c,
		Items:      items,
		ReleasedAt: now,
		Deadline:   now + rt.setup.Spec.Deadline,
		Stages:     stages,
	}
	return inst
}

func (s *system) releaseInstance(inst *instance) {
	rt := inst.rt
	inst.rt = nil
	inst.nextFree = rt.freeInst
	rt.freeInst = inst
}

// launch releases one period's instance into the system.
func (s *system) launch(rt *runtimeTask, c, items int) {
	spec := rt.setup.Spec
	n := len(spec.Subtasks)
	inst := s.newInstance(rt, c, items, n)
	for i := 0; i < n; i++ {
		inst.placements[i] = rt.dep.AppendReplicas(i, inst.placements[i][:0])
		k := len(inst.placements[i])
		inst.shares[i] = task.SplitItemsInto(inst.shares[i], items, k)
		inst.halo[i] = 0
		if k > 1 {
			inst.halo[i] = int(s.cfg.OverlapFraction * float64(items))
		}
		inst.pendingJobs[i] = k
		pm := inst.pendingMsgs[i]
		if cap(pm) < k {
			pm = make([]int, k)
		}
		pm = pm[:k]
		kPrev := 0
		if i > 0 {
			kPrev = len(inst.placements[i-1])
		}
		for j := range pm {
			pm[j] = kPrev
		}
		inst.pendingMsgs[i] = pm
		inst.readyCount[i] = 0
		inst.rec.Stages[i].Replicas = k
	}
	rt.inFlight++

	// Emit the eq. (3)/(5) forecasts for this period with the ACTUAL
	// item count, for pairing with the KindStage observation at
	// completion. Using the true count (not the allocator's
	// one-period-stale view) isolates model quality from workload
	// staleness in the residuals.
	if s.sink != nil {
		chain := rt.estimateChain(s, items, maxInt(s.totalItems(), items))
		for i := 0; i < n; i++ {
			comm := sim.Time(-1) // final stage: no outgoing message
			if i < n-1 {
				comm = chain.Comm[i]
			}
			s.sink.Emit(trace.Event{Kind: trace.KindForecast, At: s.eng.Now(), Task: spec.Name,
				Stage: int32(i), Period: int32(c), Latency: chain.Exec[i], Comm: comm})
		}
	}

	// Stage 0's inputs (the sensor reports) are available at release.
	inst.rec.Stages[0].ReadyAt = s.eng.Now()
	for idx := range inst.placements[0] {
		s.submitReplicaJob(inst, 0, idx)
	}
}

// replicaInputItems is the data volume a replica actually processes: its
// share plus the halo of neighbouring tracks it needs for continuity.
func (inst *instance) replicaInputItems(stage, idx int) int {
	return inst.shares[stage][idx] + inst.halo[stage]
}

// submitReplicaJob runs one replica's CPU work for the stage.
func (s *system) submitReplicaJob(inst *instance, stage, idx int) {
	proc := inst.placements[stage][idx]
	spec := inst.rt.setup.Spec
	demand := spec.Subtasks[stage].Demand(inst.replicaInputItems(stage, idx), s.rng)
	if inst.rt.dep.ConsumeWarmup(stage, proc) {
		demand += s.cfg.WarmupDemand
	}
	rj := s.newReplicaJob()
	rj.inst, rj.stage, rj.idx, rj.proc, rj.demand = inst, stage, idx, proc, demand
	rj.job.Name = spec.Subtasks[stage].Name
	rj.job.Demand = demand
	s.procs[proc].Submit(&rj.job)
}

// onComplete is the pooled completion callback for a replica job.
func (rj *replicaJob) onComplete(at sim.Time) {
	s, inst, stage, idx := rj.s, rj.inst, rj.stage, rj.idx
	// Attribute the CPU time to this task so utilization sampling can
	// separate own work from background.
	inst.rt.ownBusy[rj.proc] += rj.demand
	if s.sink != nil {
		s.sink.Emit(trace.Event{Kind: trace.KindExec, At: at, Task: inst.rt.setup.Spec.Name,
			Stage: int32(stage), Period: int32(inst.rec.Period), Proc: int32(rj.proc),
			Start: rj.job.SubmittedAt, Mid: rj.job.StartedAt, Value: int64(inst.replicaInputItems(stage, idx))})
	}
	// The context is done before replicaDone runs: nothing downstream
	// submits synchronously into this burst, and all fields are copied.
	s.freeReplicaJob(rj)
	s.replicaDone(inst, stage, idx, at)
}

// replicaDone handles one replica's completion: forward its output to
// every replica of the next stage, or complete the instance.
func (s *system) replicaDone(inst *instance, stage, idx int, at sim.Time) {
	inst.pendingJobs[stage]--
	if inst.pendingJobs[stage] == 0 {
		inst.rec.Stages[stage].DoneAt = s.eng.Now()
	}
	spec := inst.rt.setup.Spec
	if stage == len(spec.Subtasks)-1 {
		if inst.pendingJobs[stage] == 0 {
			inst.rec.Stages[stage].DeliveredAt = inst.rec.Stages[stage].DoneAt
			s.complete(inst)
		}
		return
	}
	next := inst.placements[stage+1]
	srcProc := inst.placements[stage][idx]
	s.perDestBuf = task.SplitItemsInto(s.perDestBuf, inst.shares[stage][idx], len(next))
	s.haloBuf = task.SplitItemsInto(s.haloBuf, inst.halo[stage+1], len(inst.placements[stage]))
	perDest, haloPerMsg := s.perDestBuf, s.haloBuf
	bytesPerItem := spec.Subtasks[stage].OutBytesPerItem
	for j, destProc := range next {
		payloadItems := perDest[j] + haloPerMsg[idx]
		tm := s.newTaskMsg()
		tm.inst, tm.stage, tm.destIdx = inst, stage+1, j
		tm.from, tm.to = srcProc, destProc
		tm.payload = int64(payloadItems * bytesPerItem)
		s.sendTaskMsg(tm)
	}
}

// sendTaskMsg puts one physical copy of the handoff on the segment and,
// when delivery timeouts are configured, arms the retransmission
// watchdog with exponential backoff (timeout doubles per attempt).
func (s *system) sendTaskMsg(tm *taskMsg) {
	m := s.seg.AcquireMessage()
	m.From = tm.from
	m.To = tm.to
	m.PayloadBytes = tm.payload
	m.Meta = tm
	m.OnDeliver = deliverTaskMsg
	m.OnDrop = dropTaskMsg
	tm.outstanding++
	if to := s.cfg.Degradation.DeliveryTimeout; to > 0 {
		tm.watchdog = s.eng.After(to<<uint(tm.attempt), tm.onTimeout)
	}
	s.seg.Send(m)
}

// timeout fires when a handoff's watchdog expires undelivered: resend
// with backoff until the retry budget runs out, then abandon — a stray
// copy may still arrive (the gate is done, not abandoned), but nothing
// new goes on the wire.
func (tm *taskMsg) timeout() {
	if tm.done || tm.abandoned {
		return
	}
	s := tm.s
	if tm.attempt >= s.cfg.Degradation.MaxRetries {
		tm.abandoned = true
		tm.maybeFree()
		return
	}
	tm.attempt++
	s.collector.CountRetransmission()
	if s.sink != nil {
		s.sink.Emit(trace.Event{Kind: trace.KindRetransmit, At: s.eng.Now()})
	}
	s.sendTaskMsg(tm)
}

// dropTaskMsg is the shared OnDrop for task messages: the copy is gone;
// recovery (if any) is the watchdog's job. Pool hygiene only.
func dropTaskMsg(m *network.Message) {
	tm := m.Meta.(*taskMsg)
	s := tm.s
	if s.sink != nil {
		s.sink.Emit(trace.Event{Kind: trace.KindDrop, At: s.eng.Now()})
	}
	s.seg.ReleaseMessage(m)
	tm.outstanding--
	tm.maybeFree()
}

// deliverTaskMsg is the shared OnDeliver for all task messages; the
// per-message context rides in Meta, so no per-send closure is needed.
// The first delivered copy completes the handoff; retransmission
// duplicates are released without a second msgArrived.
func deliverTaskMsg(m *network.Message) {
	tm := m.Meta.(*taskMsg)
	s, inst, stage, destIdx := tm.s, tm.inst, tm.stage, tm.destIdx
	tm.outstanding--
	if tm.done {
		s.seg.ReleaseMessage(m)
		tm.maybeFree()
		return
	}
	tm.done = true
	tm.watchdog.Cancel()
	if s.sink != nil {
		s.sink.Emit(trace.Event{Kind: trace.KindMessage, At: m.DeliveredAt, Task: inst.rt.setup.Spec.Name,
			Stage: int32(stage), Period: int32(inst.rec.Period), From: int32(m.From), Proc: int32(m.To),
			Start: m.EnqueuedAt, Mid: m.SentAt, Value: m.PayloadBytes})
	}
	at := m.DeliveredAt
	tm.maybeFree()
	s.seg.ReleaseMessage(m)
	s.msgArrived(inst, stage, destIdx, at)
}

// msgArrived tracks per-replica input completion for a stage.
func (s *system) msgArrived(inst *instance, stage, destIdx int, at sim.Time) {
	inst.pendingMsgs[stage][destIdx]--
	if inst.pendingMsgs[stage][destIdx] > 0 {
		return
	}
	inst.readyCount[stage]++
	if inst.readyCount[stage] == len(inst.placements[stage]) {
		// Last replica's inputs complete: the stage is observed ready
		// and the previous stage's outputs fully delivered.
		now := s.eng.Now()
		inst.rec.Stages[stage].ReadyAt = now
		inst.rec.Stages[stage-1].DeliveredAt = now
	}
	s.submitReplicaJob(inst, stage, destIdx)
}

// complete finalizes the instance and feeds the monitor.
func (s *system) complete(inst *instance) {
	rt := inst.rt
	inst.rec.CompletedAt = s.eng.Now()
	rt.inFlight--
	missed := inst.rec.Missed()
	rt.completed++
	if missed {
		rt.missed++
	}
	s.collector.ObserveCompletion(missed)
	if !missed && len(s.openCrashes) > 0 {
		// First met deadline since the crash(es): the system has
		// recovered. Crash → this completion is the recovery latency.
		for _, at := range s.openCrashes {
			s.collector.ObserveRecoveryLatency(float64(inst.rec.CompletedAt-at) / float64(sim.Millisecond))
		}
		s.openCrashes = s.openCrashes[:0]
	}
	if s.sink != nil {
		s.emitCompletion(inst)
	}
	// A period that straddled a node transition carries observations from
	// a half-crashed world; with a staleness window configured, it does
	// not become the adaptation input (the next clean period will).
	tainted := s.cfg.Degradation.StalenessWindow > 0 && inst.epoch != s.nodeEpoch
	if last := rt.lastCompleted; !tainted && (last == nil || inst.rec.Period > last.Period) {
		stages := append(rt.lastRec.Stages[:0], inst.rec.Stages...)
		rt.lastRec = inst.rec
		rt.lastRec.Stages = stages
		rt.lastCompleted = &rt.lastRec
	}
	// All jobs and messages of this period have finished; the instance
	// can serve the next period.
	s.releaseInstance(inst)
}

// emitCompletion emits a completed instance: one KindStage per stage,
// measured against the EQF sub-deadline the monitor holds now, then the
// end-to-end KindEndToEnd.
func (s *system) emitCompletion(inst *instance) {
	rt, rec := inst.rt, &inst.rec
	name := rt.setup.Spec.Name
	now := s.eng.Now()
	for i := range rec.Stages {
		comm := sim.Time(-1)
		if i < len(rec.Stages)-1 {
			comm = rec.Stages[i].CommLatency()
		}
		s.sink.Emit(trace.Event{Kind: trace.KindStage, At: now, Task: name,
			Stage: int32(i), Period: int32(rec.Period), Latency: rec.Stages[i].ExecLatency(),
			Comm: comm, Deadline: rt.mon.SubtaskDeadline(i), Value: int64(rec.Stages[i].Replicas)})
	}
	s.sink.Emit(trace.Event{Kind: trace.KindEndToEnd, At: now, Task: name, Period: int32(rec.Period),
		Latency: rec.EndToEnd(), Deadline: rt.setup.Spec.Deadline, Missed: rec.Missed(), Value: int64(rec.Items)})
}
