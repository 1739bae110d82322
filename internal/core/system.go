package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/chaos"
	"repro/internal/cpu"
	"repro/internal/deadline"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// system wires the substrates together for one run.
type system struct {
	cfg       Config
	alg       Algorithm
	eng       *sim.Engine
	procs     []cpu.Scheduler
	seg       *network.Segment
	rng       *rand.Rand
	collector *metrics.Collector
	sink      Sink // nil for an unobserved run

	// failovers counts fail-over actions for Result.Failovers.
	failovers int

	sysMeters []*cpu.Meter
	netMeter  *network.Meter

	// down marks crashed nodes (Config.Faults).
	down []bool
	// nodeEpoch increments on every node down/up transition; instances
	// stamp it at launch so completions that straddled a transition can
	// be recognized as tainted observations (Degradation.StalenessWindow).
	nodeEpoch int
	// nodeChangedAt is each node's last down/up transition time, and
	// lastTransition the most recent across nodes; both seed the
	// fallback-utilization and cooldown mechanisms. farPast until a
	// transition happens.
	nodeChangedAt  []sim.Time
	lastTransition sim.Time
	// openCrashes holds crash times awaiting the next met deadline — the
	// recovery-latency observation (crash → first met deadline).
	openCrashes []sim.Time

	tasks []*runtimeTask

	// Lane coupling; all zero/nil on a single-segment run. laneID places
	// this segment inside a lane-partitioned run, uplink carries the
	// per-segment workload reports to the other lanes, and remoteItems
	// holds the latest report received from each lane (own entry stays
	// 0).
	laneID      int
	uplink      laneUplink
	remoteItems []int

	// Free lists for the per-period hot path (see instance.go): replica
	// job contexts, task message contexts, and fan-out scratch. The engine
	// is single-threaded, so none of these need locking.
	freeRJ     *replicaJob
	freeTM     *taskMsg
	perDestBuf []int
	haloBuf    []int
}

// runtimeTask is one deployed task with its monitoring state.
type runtimeTask struct {
	setup TaskSetup
	dep   *task.Deployment
	mon   *monitor.Monitor
	alloc manager.Allocator
	// ctrl is the policy's optional degrade/recover hook, consulted at
	// every period start. Nil for the paper's algorithms and the static
	// baselines — their per-period path is untouched by the policy layer.
	ctrl policy.Controller

	// utilSnapshot is the per-node utilization from *other* work (total
	// busy time minus this task's own jobs) over the last monitoring
	// window. The profiling step measures latency against background
	// utilization, so this — not the raw node utilization — is the u the
	// fitted eq. (3) expects, and the quantity Figures 5/7 read as
	// ut(p,t).
	utilSnapshot []float64
	// rawSnapshot is the total per-node utilization over the same window
	// — what Figure 7's threshold and the least-utilized pick read.
	rawSnapshot []float64
	ownBusy     []sim.Time // cumulative CPU time of this task's jobs, per node
	lastOwn     []sim.Time
	lastBusy    []sim.Time
	lastAt      sim.Time
	// unknown marks nodes whose last monitoring window overlapped a
	// crash or recovery: their busy-time delta reads as idle while the
	// node was really unobserved. Populated only when
	// Degradation.FallbackUtil is set; nil otherwise.
	unknown []bool

	// lastCompleted is the newest untainted completed period, the
	// monitor's only input (Figure 5 reads the last period, not a
	// history): nil until the first, then lastRec, into which completion
	// copies, reusing its Stages storage.
	lastCompleted *task.PeriodRecord
	lastRec       task.PeriodRecord
	inFlight      int
	// completed/missed count this task's finished instances for the
	// observation hook (the collector aggregates across tasks).
	completed int
	missed    int

	// Per-period scratch reused across estimateChain/deriveAssignment
	// calls (AssignEQF copies what it keeps), and the instance free list.
	chainExec   []sim.Time
	chainComm   []sim.Time
	replScratch []int
	freeInst    *instance
}

// sampleUtil refreshes utilSnapshot for a new monitoring window.
func (rt *runtimeTask) sampleUtil(s *system) {
	now := s.eng.Now()
	dt := now - rt.lastAt
	for i, p := range s.procs {
		busy := p.BusyTime()
		if dt > 0 {
			other := (busy - rt.lastBusy[i]) - (rt.ownBusy[i] - rt.lastOwn[i])
			rt.utilSnapshot[i] = clamp01(float64(other) / float64(dt))
			rt.rawSnapshot[i] = clamp01(float64(busy-rt.lastBusy[i]) / float64(dt))
		} else {
			rt.utilSnapshot[i] = 0
			rt.rawSnapshot[i] = 0
		}
		rt.lastBusy[i] = busy
		rt.lastOwn[i] = rt.ownBusy[i]
	}
	if s.cfg.Degradation.FallbackUtil > 0 {
		if rt.unknown == nil {
			rt.unknown = make([]bool, len(s.procs))
		}
		for i := range s.procs {
			rt.unknown[i] = s.down[i] || s.nodeChangedAt[i] > rt.lastAt
		}
	}
	rt.lastAt = now
}

// Run simulates the task set under the given algorithm for the full
// workload pattern of every task and returns the aggregated result.
func Run(cfg Config, alg Algorithm, setups []TaskSetup) (Result, error) {
	return RunContext(context.Background(), cfg, alg, setups)
}

// cancelCheckEvents is how many engine events execute between context
// polls in RunContext. Large enough that the check is invisible in the
// event-throughput benchmarks, small enough that cancellation lands
// within microseconds of wall time.
const cancelCheckEvents = 4096

// RunContext is Run with cooperative cancellation: when ctx is done the
// simulation stops between events and ctx.Err() is returned. A
// background context takes the exact single-call engine drain Run always
// used, so results are bit-identical to the pre-context build.
func RunContext(ctx context.Context, cfg Config, alg Algorithm, setups []TaskSetup) (Result, error) {
	return runContext(ctx, cfg, alg, setups, nil)
}

// runContext is the shared body of RunContext and RunObservedContext.
// sink, when non-nil, has been validated by the caller; nil keeps every
// code path byte-identical to the unobserved build.
func runContext(ctx context.Context, cfg Config, alg Algorithm, setups []TaskSetup, sink Sink) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if !ValidAlgorithm(alg) {
		return Result{}, fmt.Errorf("core: unknown algorithm %q", alg)
	}
	if len(setups) == 0 {
		return Result{}, fmt.Errorf("core: no tasks to run")
	}
	if cfg.Lanes >= 2 {
		// Lane-partitioned topology: sharded engines behind the epoch
		// barrier (see lanes.go). Lanes ≤ 1 keeps the exact
		// single-threaded path below.
		return runLanes(ctx, cfg, alg, setups, sink)
	}
	// Compile the stochastic chaos processes into the concrete fault and
	// partition schedule before anything is built. With chaos disabled
	// this block leaves cfg and faults untouched, so the run is
	// bit-identical to a chaos-free build.
	faults := cfg.Faults
	if cfg.Chaos.Enabled() {
		horizon := patternHorizon(setups)
		sched := chaos.Compile(cfg.Chaos, cfg.NumNodes, horizon, cfg.Seed)
		faults = append([]Fault(nil), faults...)
		for _, f := range sched.Faults {
			faults = append(faults, Fault{Node: f.Node, At: f.At, Duration: f.Duration})
		}
		if len(sched.Partitions) > 0 {
			wins := append([]network.Window(nil), cfg.Network.Partitions...)
			for _, w := range sched.Partitions {
				wins = append(wins, network.Window{Start: w.Start, End: w.End})
			}
			sort.Slice(wins, func(i, j int) bool { return wins[i].Start < wins[j].Start })
			cfg.Network.Partitions = wins
		}
	}
	s, err := buildSystem(cfg, alg, setups, sim.NewEngine(), faults, sink)
	if err != nil {
		return Result{}, err
	}
	sampled := sink != nil && sink.SampleEvery() > 0
	if sampled {
		// After the rest of construction, so every event the build
		// scheduled or reserved keeps its engine sequence number (see
		// scheduleSamples).
		s.scheduleSamples(ctx, sink.SampleEvery(), patternHorizon(setups))
	}

	// Run to quiescence: all instances drain once period starts stop.
	// With a cancellable context, poll it every cancelCheckEvents events;
	// the done channel of a background context is nil and the stepping
	// loop is skipped entirely.
	if ctx.Done() == nil {
		s.eng.Run()
	} else {
	drain:
		for {
			for i := 0; i < cancelCheckEvents; i++ {
				if !s.eng.Step() {
					break drain
				}
			}
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if s.eng.Stopped() {
			// A sample saw the context done (see scheduleSamples).
			return Result{}, ctx.Err()
		}
	}
	res := s.finish()
	if sampled {
		final := s.captureSample()
		final.Final = true
		final.Metrics = res.Metrics
		sink.Emit(trace.Event{Kind: trace.KindSample, At: s.eng.Now(), Sample: final})
	}
	return res, nil
}

// buildSystem assembles one simulated segment on the given engine:
// processors, meters, the sink's job observers, the fault schedule, runtime
// tasks, and one periodic period-start source per task (its sequence
// numbers reserved up front).
// The caller has validated cfg/alg/setups and resolved the concrete
// fault schedule. Construction order is load-bearing: it fixes the
// engine's event sequence numbers, and therefore the run.
func buildSystem(cfg Config, alg Algorithm, setups []TaskSetup, eng *sim.Engine, faults []Fault, sink Sink) (*system, error) {
	if cfg.Network.LossSeed == 0 {
		// Loss draws derive from the run seed unless the caller pinned a
		// separate stream; irrelevant (no RNG exists) on a reliable segment.
		cfg.Network.LossSeed = cfg.Seed
	}
	s := &system{
		cfg:       cfg,
		alg:       alg,
		eng:       eng,
		seg:       nil,
		rng:       sim.NewRand(cfg.Seed, 0x5eed),
		collector: metrics.NewCollector(float64(cfg.NumNodes)),
		sink:      sink,
	}
	s.seg = network.NewSegment(s.eng, cfg.Network)
	s.procs = make([]cpu.Scheduler, 0, cfg.NumNodes)
	s.sysMeters = make([]*cpu.Meter, 0, cfg.NumNodes)
	for i := 0; i < cfg.NumNodes; i++ {
		s.procs = append(s.procs, cpu.NewScheduler(s.eng, i, cfg.Slice, cfg.Discipline))
		s.sysMeters = append(s.sysMeters, cpu.NewMeter(s.eng, s.procs[i]))
	}
	s.netMeter = network.NewMeter(s.seg)
	if sink != nil {
		// Queue-wait coverage for every job on every node comes from the
		// scheduler-level observer; task-scoped exec spans are emitted at
		// the facade's own completion callbacks, which carry the context.
		for _, p := range s.procs {
			p.SetObserver(func(procID int, j *cpu.Job) {
				sink.Emit(trace.Event{Kind: trace.KindJobWait, At: s.eng.Now(), Proc: int32(procID),
					Start: j.SubmittedAt, Mid: j.StartedAt})
			})
		}
	}

	s.down = make([]bool, cfg.NumNodes)
	s.nodeChangedAt = make([]sim.Time, cfg.NumNodes)
	for i := range s.nodeChangedAt {
		s.nodeChangedAt[i] = farPast
	}
	s.lastTransition = farPast
	for _, f := range faults {
		f := f
		s.eng.Schedule(f.At, func() { s.failNode(f.Node) })
		if f.Duration > 0 {
			s.eng.Schedule(f.At+f.Duration, func() { s.recoverNode(f.Node) })
		}
	}

	for _, setup := range setups {
		rt, err := s.newRuntimeTask(setup)
		if err != nil {
			return nil, err
		}
		s.tasks = append(s.tasks, rt)
	}

	// Every period start, as one periodic source per task: each reserves
	// its periods' sequence numbers here, in task order.
	for _, rt := range s.tasks {
		rt := rt
		s.eng.SchedulePeriodic(0, rt.setup.Spec.Period, rt.setup.Pattern.Periods(),
			func(c int) { s.runPeriod(rt, c) })
	}
	return s, nil
}

// finish gathers the run result after the engine has drained.
func (s *system) finish() Result {
	s.collector.CountDropped(int(s.seg.Dropped()))
	return Result{
		Metrics:     s.collector.Finish(),
		EventsFired: s.eng.EventsFired(),
		Failovers:   s.failovers,
	}
}

// farPast initializes transition timestamps so zero-time comparisons
// (first monitoring window starts at lastAt 0) can't false-positive.
const farPast = sim.Time(-1 << 62)

// patternHorizon returns the latest pattern end across the task set —
// the horizon the chaos processes are compiled against. Setups are not
// yet validated here, so nil patterns are skipped (they fail later).
func patternHorizon(setups []TaskSetup) sim.Time {
	var end sim.Time
	for _, st := range setups {
		if st.Pattern == nil {
			continue
		}
		if e := sim.Time(st.Pattern.Periods()) * st.Spec.Period; e > end {
			end = e
		}
	}
	return end
}

// failNode crashes a node: in-flight and queued work is lost.
func (s *system) failNode(n int) {
	if s.down[n] {
		return
	}
	s.down[n] = true
	s.nodeEpoch++
	s.nodeChangedAt[n] = s.eng.Now()
	s.lastTransition = s.eng.Now()
	s.collector.CountCrash()
	s.openCrashes = append(s.openCrashes, s.eng.Now())
	s.procs[n].Fail()
	s.adaptation(trace.ActionNodeDown, int(s.eng.Now()/sim.Second), "-", -1, int64(n), n)
}

// recoverNode brings a crashed node back empty.
func (s *system) recoverNode(n int) {
	if !s.down[n] {
		return
	}
	s.down[n] = false
	s.nodeEpoch++
	s.nodeChangedAt[n] = s.eng.Now()
	s.lastTransition = s.eng.Now()
	s.collector.CountRecovery()
	s.procs[n].Recover()
	s.adaptation(trace.ActionNodeUp, int(s.eng.Now()/sim.Second), "-", -1, int64(n), n)
}

// repairPlacements is the fail-over step run at each monitoring cycle:
// replicas on crashed nodes are dropped (surviving replicas absorb the
// stream) and a subtask whose only process died is relocated to the
// least-utilized live node.
func (s *system) repairPlacements(rt *runtimeTask, c int) {
	for stage := range rt.setup.Spec.Subtasks {
		for _, proc := range rt.dep.Replicas(stage) {
			if !s.down[proc] {
				continue
			}
			if rt.dep.RemoveProcessor(stage, proc) {
				s.collector.CountShutdown()
				s.failovers++
				s.adaptation(trace.ActionFailover, c, rt.setup.Spec.Name, stage, int64(proc), proc)
				continue
			}
			// Sole replica: relocate to the least-utilized live node
			// that does not already host this stage.
			best := -1
			for p := 0; p < s.cfg.NumNodes; p++ {
				if s.down[p] || rt.dep.Has(stage, p) {
					continue
				}
				if best == -1 || rt.rawSnapshot[p] < rt.rawSnapshot[best] {
					best = p
				}
			}
			if best == -1 {
				continue // no live node available; the stage stays dark
			}
			if err := rt.dep.ReplaceProcessor(stage, proc, best); err == nil {
				s.failovers++
				s.adaptation(trace.ActionFailover, c, rt.setup.Spec.Name, stage, int64(best), proc, best)
			}
		}
	}
}

func (s *system) newRuntimeTask(setup TaskSetup) (*runtimeTask, error) {
	if err := setup.validate(s.cfg.NumNodes); err != nil {
		return nil, err
	}
	homes := setup.Homes
	if homes == nil {
		homes = make([]int, len(setup.Spec.Subtasks))
		for i := range homes {
			homes[i] = i % s.cfg.NumNodes
		}
	}
	dep, err := task.NewDeployment(setup.Spec, homes)
	if err != nil {
		return nil, err
	}
	pol, ok := policy.Lookup(string(s.alg))
	if !ok {
		// RunContext validates the algorithm before any task is built, so
		// reaching here is a wiring bug rather than user input.
		return nil, fmt.Errorf("core: unknown algorithm %q", s.alg)
	}
	penv := policy.TaskEnv{
		Exec:          setup.Exec,
		Comm:          setup.Comm,
		NumNodes:      s.cfg.NumNodes,
		UtilThreshold: s.cfg.UtilThreshold,
		Knobs:         s.cfg.Policy,
	}
	alloc, err := pol.NewAllocator(penv)
	if err != nil {
		return nil, err
	}
	if p, ok := alloc.(*manager.Predictive); ok && s.sink != nil {
		// Emit every Figure 5 forecast evaluation: the probe fires once
		// per replica per forecastOK pass, so a per-stage count reflects
		// how much model work each adaptation decision cost.
		name := setup.Spec.Name
		p.Probe = func(stage, share int, u float64, predicted sim.Time) {
			s.sink.Emit(trace.Event{Kind: trace.KindForecastEval, At: s.eng.Now(), Task: name, Stage: int32(stage)})
		}
	}
	if seeder, ok := pol.(policy.DeploymentSeeder); ok {
		// static-max: maximum-concurrency deployment, fixed for the run.
		if err := seeder.SeedDeployment(penv, dep, setup.Spec); err != nil {
			return nil, err
		}
	}
	rt := &runtimeTask{
		setup:        setup,
		dep:          dep,
		alloc:        alloc,
		utilSnapshot: make([]float64, s.cfg.NumNodes),
		rawSnapshot:  make([]float64, s.cfg.NumNodes),
		ownBusy:      make([]sim.Time, s.cfg.NumNodes),
		lastOwn:      make([]sim.Time, s.cfg.NumNodes),
		lastBusy:     make([]sim.Time, s.cfg.NumNodes),
	}
	if cm, ok := pol.(policy.ControllerMaker); ok {
		rt.ctrl = cm.NewController(penv)
	}
	// Initial EQF assignment from the initial operating conditions
	// (§4.1: d_init from the first period's workload, u_init = idle).
	initial, err := s.deriveAssignment(rt, setup.Pattern.Size(0), setup.Pattern.Size(0))
	if err != nil {
		return nil, err
	}
	monCfg := s.cfg.Monitor
	if w := s.cfg.Degradation.StalenessWindow; w > 0 && monCfg.StalenessWindow == 0 {
		monCfg.StalenessWindow = w
	}
	rt.mon, err = monitor.New(monCfg, setup.Spec, initial)
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// deriveAssignment re-runs the EQF variant (eqs. 1–2) with the current
// replica counts, observed utilizations and workload estimates.
// estimateChain returns the chain estimates in scratch buffers owned by
// rt: the result is only valid until the next estimateChain call, and
// callers (AssignEQF, the launch-time forecast emit) must not retain it.
func (rt *runtimeTask) estimateChain(s *system, items, totalItems int) deadline.Chain {
	n := len(rt.setup.Spec.Subtasks)
	if cap(rt.chainExec) < n {
		rt.chainExec = make([]sim.Time, n)
		rt.chainComm = make([]sim.Time, n)
	}
	chain := deadline.Chain{
		Exec: rt.chainExec[:n],
		Comm: rt.chainComm[:n],
	}
	chain.Comm[n-1] = 0
	for i := 0; i < n; i++ {
		rt.replScratch = rt.dep.AppendReplicas(i, rt.replScratch[:0])
		replicas := rt.replScratch
		k := len(replicas)
		share := (items + k - 1) / k
		if k > 1 {
			// A replica processes its share plus the continuity halo
			// (Config.OverlapFraction); the estimate must match what the
			// monitor will observe or the slack band never clears.
			share += int(s.cfg.OverlapFraction * float64(items))
		}
		var u float64
		for _, p := range replicas {
			u += rt.utilSnapshot[p]
		}
		u /= float64(k)
		eex := rt.setup.Exec[i].Latency(share, clamp01(u))
		if eex < 100*sim.Microsecond {
			eex = 100 * sim.Microsecond
		}
		chain.Exec[i] = eex
		if i < n-1 {
			kNext := rt.dep.ReplicaCount(i + 1)
			nextShare := (items + kNext - 1) / kNext
			chain.Comm[i] = rt.setup.Comm.Delay(float64(nextShare), totalItems)
		}
	}
	return chain
}

func (s *system) deriveAssignment(rt *runtimeTask, items, totalItems int) (deadline.Assignment, error) {
	return deadline.AssignEQF(rt.estimateChain(s, items, totalItems), rt.setup.Spec.Deadline)
}

// localItems returns this segment's share of eq. (5)'s Σᵢ ds(Tᵢ, c) as
// known at adaptation time: every local task's workload for its most
// recently *observed* period. Allocation runs before the new period's
// sensor data arrives, so the freshest available count is one period old
// — a staleness that only affects the forecast-driven algorithm.
func (s *system) localItems() int {
	now := s.eng.Now()
	total := 0
	for _, rt := range s.tasks {
		idx := int(now/rt.setup.Spec.Period) - 1
		if idx < 0 {
			idx = 0
		}
		total += rt.setup.Pattern.Size(idx)
	}
	return total
}

// totalItems is eq. (5)'s Σᵢ ds(Tᵢ, c) over the whole system: the local
// share plus, on a lane-partitioned run, the latest workload report
// received from every other segment (one uplink latency staler than the
// local share — a manager on one segment learns about the others over
// the wire).
func (s *system) totalItems() int {
	total := s.localItems()
	for _, r := range s.remoteItems {
		total += r
	}
	return total
}

// runPeriod fires at each period start: sample, analyze, consult the
// policy controller, adapt, record, launch.
func (s *system) runPeriod(rt *runtimeTask, c int) {
	items := rt.setup.Pattern.Size(c)

	// 0. Lane uplink: at this segment's anchor boundaries — the declared
	// cross-lane send instants — report the local Σ-items to the other
	// segments. Fires even for periods a policy later stretches away:
	// the nominal boundary exists either way.
	if s.uplink != nil && rt == s.tasks[0] {
		s.uplink.BroadcastItems(s.laneID, s.localItems())
	}

	// 1. Sample per-processor other-work utilization over the last
	// period window.
	rt.sampleUtil(s)

	// 1b. Fail-over: heal placements that reference crashed nodes.
	s.repairPlacements(rt, c)

	// 2. Monitor verdict for the most recent completed record, with the
	// chaos-hardening hysteresis: for CooldownPeriods after any node
	// flaps, replicas are not shut down — a node that just came back (or
	// is about to come back) would otherwise trigger immediate
	// de-allocation of exactly the redundancy the next crash needs.
	// Replication stays responsive.
	analysis := rt.mon.AnalyzeAt(rt.lastCompleted, s.eng.Now())
	if d := s.cfg.Degradation.CooldownPeriods; d > 0 && len(analysis.Shutdown) > 0 &&
		s.eng.Now() < s.lastTransition+sim.Time(d)*rt.setup.Spec.Period {
		analysis.Shutdown = analysis.Shutdown[:0]
	}

	// 2b. Policy degrade/recover hook: a controller may shed part of the
	// period's items, skip the launch entirely (period stretching), or
	// swallow the monitor's signals because it degraded instead of
	// allocating. Policies without a controller take the paper's path
	// untouched.
	launchItems, skip := items, false
	if rt.ctrl != nil {
		dec := rt.ctrl.PlanPeriod(policy.PeriodState{
			Period:      c,
			Items:       items,
			Overloaded:  len(analysis.Replicate) > 0,
			Underloaded: len(analysis.Shutdown) > 0,
			MeanRawUtil: meanFloat(rt.rawSnapshot),
		})
		if dec.SuppressReplicate {
			analysis.Replicate = analysis.Replicate[:0]
		}
		if dec.SuppressShutdown {
			analysis.Shutdown = analysis.Shutdown[:0]
		}
		if dec.Skip {
			skip = true
			s.collector.CountStretchedPeriod()
			s.adaptation(trace.ActionStretch, c, rt.setup.Spec.Name, -1, 1)
		} else {
			launchItems = dec.LaunchItems
			if launchItems > items {
				launchItems = items
			}
			if launchItems < 0 {
				launchItems = 0
			}
			if shed := items - launchItems; shed > 0 {
				s.collector.CountShedItems(shed)
				s.adaptation(trace.ActionShed, c, rt.setup.Spec.Name, -1, int64(shed))
			}
		}
	}

	// 2c. Adapt placement. The workload known to the allocator is the
	// previous period's ds(Ti,c): the new period's sensor count has not
	// arrived yet.
	knownItems := items
	if c > 0 {
		knownItems = rt.setup.Pattern.Size(c - 1)
	}
	s.adapt(rt, c, knownItems, analysis)

	// A stretched-away period launches nothing and takes no utilization
	// sample: the nominal boundary exists, the instance does not.
	if skip {
		return
	}

	// 3. System-level metric samples, anchored to the first task's
	// periods so multi-task runs don't double-count windows.
	if rt == s.tasks[0] {
		var cpuSum float64
		for i, m := range s.sysMeters {
			u := clamp01(m.Sample())
			cpuSum += u
			if s.sink != nil {
				s.sink.Emit(trace.Event{Kind: trace.KindProcUtil, At: s.eng.Now(), Proc: int32(i), Util: u})
			}
		}
		var reps float64
		for _, t := range s.tasks {
			reps += t.dep.MeanReplicasOfReplicable()
		}
		netU := clamp01(s.netMeter.Sample())
		if s.sink != nil {
			s.sink.Emit(trace.Event{Kind: trace.KindNetUtil, At: s.eng.Now(), Util: netU})
		}
		s.collector.ObservePeriodStart(
			cpuSum/float64(len(s.sysMeters)),
			netU,
			reps/float64(len(s.tasks)),
		)
	}

	// 4. Launch the instance.
	s.launch(rt, c, launchItems)
}

// adapt runs steps 1–2 of the management process for one task, acting on
// the (possibly policy-filtered) monitor analysis.
func (s *system) adapt(rt *runtimeTask, c, items int, analysis monitor.Analysis) {
	if len(analysis.Replicate) == 0 && len(analysis.Shutdown) == 0 {
		return
	}
	procs := manager.MaskedProcView{Utils: rt.utilSnapshot, Down: s.down}
	raw := manager.MaskedProcView{Utils: rt.rawSnapshot, Down: s.down}
	if f := s.cfg.Degradation.FallbackUtil; f > 0 {
		// Forecast fallback: a recovering node has no trustworthy
		// utilization sample, so the regression inputs substitute a
		// conservative prior instead of "perfectly idle".
		procs.Unknown, procs.Fallback = rt.unknown, f
		raw.Unknown, raw.Fallback = rt.unknown, f
	}
	env := manager.Environment{
		Procs:         procs,
		RawProcs:      raw,
		Items:         items,
		TotalItems:    maxInt(s.totalItems(), items),
		SlackFraction: s.cfg.Monitor.SlackFraction,
	}
	// Figure 5 compares the forecast eex + ecd against the subtask
	// window; per the paper's footnote 3 the incoming message's delay is
	// incorporated into the successor subtask's deadline, so the window
	// handed to the allocator is dl(m_{i−1}) + dl(st_i).
	window := func(stage int) sim.Time {
		dl := rt.mon.SubtaskDeadline(stage)
		if stage > 0 {
			dl += rt.mon.Assignment().Message[stage-1]
		}
		return dl
	}
	changed := false
	for _, stage := range analysis.Replicate {
		env.SubtaskDeadline = window(stage)
		before := rt.dep.ReplicaCount(stage)
		added, ok := rt.alloc.Replicate(rt.dep, stage, env)
		if added > 0 {
			changed = true
			s.collector.CountReplications(added)
			// Replication appends to PS(st), so the new replicas are
			// its tail.
			rt.replScratch = rt.dep.AppendReplicas(stage, rt.replScratch[:0])
			s.adaptation(trace.ActionReplicate, c, rt.setup.Spec.Name, stage, int64(added), rt.replScratch[before:]...)
		}
		if !ok {
			s.collector.CountAllocFailure()
			s.adaptation(trace.ActionAllocFailure, c, rt.setup.Spec.Name, stage, 0)
		}
	}
	for _, stage := range analysis.Shutdown {
		env.SubtaskDeadline = window(stage)
		if !rt.alloc.ShouldShutdown(rt.dep, stage, env) {
			continue
		}
		if proc, ok := manager.ShutDownAReplica(rt.dep, stage); ok {
			changed = true
			s.collector.CountShutdown()
			s.adaptation(trace.ActionShutdown, c, rt.setup.Spec.Name, stage, int64(proc), proc)
		}
	}
	if changed {
		// §4.1: deadlines are re-assigned after every adaptation action.
		if a, err := s.deriveAssignment(rt, items, env.TotalItems); err == nil {
			rt.mon.SetAssignment(a)
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// meanFloat returns the arithmetic mean, 0 for an empty slice.
func meanFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
