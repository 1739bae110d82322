package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/chaos"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// laneReportBytes is the payload of one cross-lane workload report (a
// handful of counters). Its transmission time on the segment model sets
// the uplink latency, and with it the lane protocol's lookahead.
const laneReportBytes = 64

// laneUplink carries a lane's per-segment workload report to the other
// lanes of a partitioned run.
type laneUplink interface {
	// BroadcastItems ships lane src's Σ-items report to every other
	// lane; each copy arrives one uplink latency later.
	BroadcastItems(src, total int)
}

// laneLinks is the uplink between the per-lane systems: reports ride the
// LaneSet's cross-lane channel with the fixed report latency, which
// equals the set's lookahead — the earliest legal delivery.
type laneLinks struct {
	ls      *sim.LaneSet
	systems []*system
	delay   sim.Time
}

func (ll *laneLinks) BroadcastItems(src, total int) {
	at := ll.ls.Lane(src).Now() + ll.delay
	for dst := range ll.systems {
		if dst == src {
			continue
		}
		sys := ll.systems[dst]
		ll.ls.Post(src, dst, at, func() { sys.remoteItems[src] = total })
	}
}

// runLanes is RunContext for Lanes ≥ 2: the node set is partitioned into
// equal segments, each built as a full system (own engine heap, timer
// slab, segment, pools, RNG streams) on one lane of a sim.LaneSet, and
// the lanes advance under the conservative epoch barrier. The only
// cross-lane traffic is the per-segment workload report posted at anchor
// period boundaries, so the epoch horizon stretches from one boundary to
// the next and the barrier cost is one merge per period, not per
// lookahead.
//
// Results are byte-identical for every Parallel value: within an epoch
// lanes share nothing, and the barrier merges cross-lane deliveries in
// the fixed (time, source lane, sequence) order. The final Result is
// assembled from the per-lane systems by order-insensitive metric sums.
//
// An observed run records each lane's stream in its own buffer and,
// after the lanes drain, replays one merged stream into sink (see
// mergeLaneStreams). A sink that asks for state samples is refused: a
// sample is one view of the whole system, which no lane holds.
func runLanes(ctx context.Context, cfg Config, alg Algorithm, setups []TaskSetup, sink Sink) (Result, error) {
	if sink != nil && sink.SampleEvery() > 0 {
		return Result{}, fmt.Errorf("core: lane-partitioned runs (Lanes=%d) take no state samples: no lane holds the whole system", cfg.Lanes)
	}
	lanes := cfg.Lanes
	laneSize := cfg.NumNodes / lanes // Validate guarantees divisibility

	// Partition the task set: a task lives wholly on one segment.
	laneSetups := make([][]TaskSetup, lanes)
	for i, ts := range setups {
		lane, err := laneOf(ts, i, lanes, laneSize)
		if err != nil {
			return Result{}, err
		}
		lts := ts
		if len(ts.Homes) > 0 {
			local := make([]int, len(ts.Homes))
			for j, h := range ts.Homes {
				local[j] = h - lane*laneSize
			}
			lts.Homes = local
		}
		laneSetups[lane] = append(laneSetups[lane], lts)
	}
	for l, lts := range laneSetups {
		if len(lts) == 0 {
			return Result{}, fmt.Errorf("core: lane %d (nodes %d–%d) has no tasks; every lane needs at least one",
				l, l*laneSize, (l+1)*laneSize-1)
		}
	}

	// Compile node faults once, globally: the chaos streams are keyed by
	// node, so a node's crash timeline is identical whether the run is
	// lane-partitioned or not. Each lane then takes the faults of its own
	// nodes, renumbered to local IDs.
	horizon := patternHorizon(setups)
	faults := cfg.Faults
	if cfg.Chaos.Enabled() {
		sched := chaos.Compile(cfg.Chaos, cfg.NumNodes, horizon, cfg.Seed)
		faults = append([]Fault(nil), faults...)
		for _, f := range sched.Faults {
			faults = append(faults, Fault{Node: f.Node, At: f.At, Duration: f.Duration})
		}
	}

	// The lookahead is the uplink report latency: no cross-lane message
	// can arrive sooner, and reports are the only cross-lane traffic.
	delay := cfg.Network.CrossLaneDelay(laneReportBytes)
	ls := sim.NewLaneSet(lanes, delay)
	ls.SetCrossTimes(crossGrid(laneSetups))

	link := &laneLinks{ls: ls, delay: delay}
	systems := make([]*system, lanes)
	var buffers []*trace.Recording
	if sink != nil {
		buffers = make([]*trace.Recording, lanes)
	}
	for l := 0; l < lanes; l++ {
		lcfg := cfg
		lcfg.NumNodes = laneSize
		lcfg.Lanes, lcfg.Parallel = 0, 0
		// Derived per-lane streams decorrelate demand noise and segment
		// loss across lanes while keeping every lane a pure
		// function of (Seed, lane).
		lcfg.Seed = laneSeed(cfg.Seed, l)
		if cfg.Network.LossSeed != 0 {
			lcfg.Network.LossSeed = laneSeed(cfg.Network.LossSeed, l)
		} else {
			lcfg.Network.LossSeed = lcfg.Seed
		}
		lcfg.Chaos = chaos.Config{} // compiled above; lanes get schedules, not processes
		if cfg.Chaos.PartitionMTBF > 0 {
			// Transient partitions are per segment: each lane's segment
			// draws its own outage process from a lane-salted stream.
			wins := append([]network.Window(nil), cfg.Network.Partitions...)
			for _, w := range chaos.LanePartitions(cfg.Chaos, horizon, cfg.Seed, l) {
				wins = append(wins, network.Window{Start: w.Start, End: w.End})
			}
			sort.Slice(wins, func(i, j int) bool { return wins[i].Start < wins[j].Start })
			lcfg.Network.Partitions = wins
		}
		var lsink Sink
		if buffers != nil {
			buffers[l] = &trace.Recording{}
			lsink = buffers[l]
		}
		sys, err := buildSystem(lcfg, alg, laneSetups[l], ls.Lane(l), laneFaults(faults, l, laneSize), lsink)
		if err != nil {
			return Result{}, err
		}
		sys.laneID = l
		sys.uplink = link
		sys.remoteItems = make([]int, lanes)
		systems[l] = sys
	}
	link.systems = systems

	workers := cfg.Parallel
	if workers == 0 {
		// Auto: one worker per available CPU, capped at the lane count
		// inside LaneSet.Run. Worker count never changes results.
		workers = runtime.GOMAXPROCS(0)
	}
	var poll func() error
	if ctx.Done() != nil {
		poll = func() error { return ctx.Err() } // safe from worker goroutines
	}
	if err := ls.Run(workers, poll); err != nil {
		return Result{}, err
	}
	if sink != nil {
		for _, e := range mergeLaneStreams(buffers, laneSize) {
			sink.Emit(e)
		}
	}
	return mergeLaneResults(systems), nil
}

// mergeLaneResults assembles one Result from the drained lanes by
// order-insensitive sums of metrics and counters.
func mergeLaneResults(systems []*system) Result {
	base := systems[0]
	var res Result
	for i, sys := range systems {
		sys.collector.CountDropped(int(sys.seg.Dropped()))
		if i > 0 {
			base.collector.Absorb(sys.collector)
		}
		res.EventsFired += sys.eng.EventsFired()
		res.Failovers += sys.failovers
	}
	res.Metrics = base.collector.Finish()
	return res
}

// mergeLaneStreams merges the lanes' recorded streams into one, in the
// deterministic merge order: a stable sort on At over the lanes
// concatenated in index order, so equal times keep lane order and, within
// a lane, emission order. Lanes emit local node ids; the merged stream
// carries global ones.
func mergeLaneStreams(buffers []*trace.Recording, laneSize int) []trace.Event {
	var out []trace.Event
	for l, b := range buffers {
		base := l * laneSize
		for _, e := range b.Events {
			switch e.Kind {
			case trace.KindExec, trace.KindJobWait, trace.KindProcUtil:
				e.Proc += int32(base)
			case trace.KindMessage:
				e.Proc += int32(base)
				e.From += int32(base)
			case trace.KindAdaptation:
				for i := range e.Action.Procs {
					e.Action.Procs[i] += base
				}
				switch e.Action.Kind {
				case trace.ActionNodeDown, trace.ActionNodeUp, trace.ActionFailover, trace.ActionShutdown:
					e.Value += int64(base) // the node acted on
				}
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// laneOf returns the lane owning a task. With explicit Homes every home
// must fall in one lane's node block; with nil Homes task i goes to lane
// i mod lanes (and its subtasks to the lane's nodes in the usual
// round-robin, via the per-lane default).
func laneOf(ts TaskSetup, idx, lanes, laneSize int) (int, error) {
	if len(ts.Homes) == 0 {
		return idx % lanes, nil
	}
	lane := ts.Homes[0] / laneSize
	for _, h := range ts.Homes {
		if h < 0 || h/laneSize != lane {
			return 0, fmt.Errorf("core: task %s homes %v span lane boundaries (lane size %d); a task must live on one segment",
				ts.Spec.Name, ts.Homes, laneSize)
		}
	}
	return lane, nil
}

// laneFaults selects the faults targeting one lane's node block,
// renumbered to lane-local node IDs.
func laneFaults(faults []Fault, lane, laneSize int) []Fault {
	var out []Fault
	for _, f := range faults {
		if f.Node/laneSize == lane {
			f.Node -= lane * laneSize
			out = append(out, f)
		}
	}
	return out
}

// crossGrid returns the sorted union of every lane's anchor-task period
// boundaries — the only instants at which lanes broadcast, and therefore
// the LaneSet's send grid.
func crossGrid(laneSetups [][]TaskSetup) []sim.Time {
	seen := make(map[sim.Time]bool)
	var grid []sim.Time
	for _, lts := range laneSetups {
		anchor := lts[0]
		if anchor.Pattern == nil {
			continue // invalid; surfaces as an error in buildSystem
		}
		for c := 0; c < anchor.Pattern.Periods(); c++ {
			t := sim.Time(c) * anchor.Spec.Period
			if !seen[t] {
				seen[t] = true
				grid = append(grid, t)
			}
		}
	}
	sort.Slice(grid, func(i, j int) bool { return grid[i] < grid[j] })
	return grid
}

// laneSeed derives lane l's RNG seed from the run seed (splitmix64 on
// the pair), so lanes draw decorrelated streams while each remains a
// pure function of (seed, lane).
func laneSeed(seed uint64, lane int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(lane+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}
