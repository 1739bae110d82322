package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// LaneSet advances several independent Engines — lanes — under a
// conservative epoch-barrier protocol, so one simulated system can be
// sharded across goroutines without giving up determinism.
//
// The contract is the classic conservative-PDES one: lanes interact only
// through Post, and a posted event's delivery time must lie at least
// `lookahead` after the posting lane's current clock. The set then runs
// in epochs: pick the earliest pending event time T across lanes, derive
// a horizon H such that no cross-lane event generated inside [T, H) can
// be due before H, let every lane execute its events with time < H
// (independently, hence parallelizable), barrier, and inject the posted
// events in the deterministic total order (time, source lane, source
// sequence). Within an epoch lanes share nothing, so the serial driver
// (one worker, lanes in index order) and the parallel driver (a worker
// pool) produce byte-identical lane states — parallelism trades
// wall-clock only.
//
// Without further information H = T + lookahead, which is correct but
// forces a barrier every lookahead interval. When the embedding model
// only emits cross-lane traffic at known instants — here, period
// boundaries — SetCrossTimes declares that send grid and the horizon
// stretches to (first grid instant ≥ T) + lookahead: typically one
// barrier per simulated period instead of thousands.
type LaneSet struct {
	lanes     []*Engine
	lookahead Time

	grid    []Time
	gridIdx int

	// outbox[src] is written only by the goroutine running lane src
	// during an epoch and drained at the barrier; crossSeq[src] numbers
	// that lane's posts for the merge tiebreak.
	outbox   [][]crossEvent
	crossSeq []uint64

	merged []crossEvent // barrier scratch

	epochs  uint64
	crossed uint64
}

// crossEvent is one pending cross-lane delivery.
type crossEvent struct {
	at  Time
	src int
	dst int
	seq uint64
	fn  func()
}

// NewLaneSet returns n fresh Engines coupled by the given lookahead: the
// minimum delay between a lane's clock and any delivery it may Post.
func NewLaneSet(n int, lookahead Time) *LaneSet {
	if n < 1 {
		panic(fmt.Sprintf("sim: lane set needs ≥1 lane, got %d", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	ls := &LaneSet{
		lanes:     make([]*Engine, n),
		lookahead: lookahead,
		outbox:    make([][]crossEvent, n),
		crossSeq:  make([]uint64, n),
	}
	for i := range ls.lanes {
		ls.lanes[i] = NewEngine()
	}
	return ls
}

// Lane returns lane i's engine. Scheduling into it directly is fine
// before Run starts; during Run only the lane's own events (or Post)
// may touch it.
func (ls *LaneSet) Lane(i int) *Engine { return ls.lanes[i] }

// Epochs returns how many barrier rounds have completed.
func (ls *LaneSet) Epochs() uint64 { return ls.epochs }

// CrossEvents returns how many cross-lane deliveries have been merged.
func (ls *LaneSet) CrossEvents() uint64 { return ls.crossed }

// SetCrossTimes declares the only instants at which lanes will Post —
// the send grid. Times must be sorted ascending. Posts from off-grid
// instants that would violate an epoch horizon are caught at the
// barrier and panic.
func (ls *LaneSet) SetCrossTimes(grid []Time) {
	for i := 1; i < len(grid); i++ {
		if grid[i] < grid[i-1] {
			panic(fmt.Sprintf("sim: cross-time grid not sorted at %d: %v after %v", i, grid[i], grid[i-1]))
		}
	}
	ls.grid = grid
	ls.gridIdx = 0
}

// Post schedules fn on lane dst at time at, from code running inside
// lane src's current event. The delivery must respect the lookahead:
// at ≥ src's clock + lookahead. Posts are buffered per source lane and
// injected at the next barrier in (at, src, seq) order, so the delivery
// order — and therefore dst's event sequence — is independent of how
// lanes were scheduled onto workers.
func (ls *LaneSet) Post(src, dst int, at Time, fn func()) {
	if src < 0 || src >= len(ls.lanes) || dst < 0 || dst >= len(ls.lanes) {
		panic(fmt.Sprintf("sim: cross-lane post %d→%d outside [0,%d)", src, dst, len(ls.lanes)))
	}
	if src == dst {
		panic(fmt.Sprintf("sim: lane %d posting to itself (use Schedule)", src))
	}
	if fn == nil {
		panic("sim: cross-lane post with nil callback")
	}
	if min := ls.lanes[src].Now() + ls.lookahead; at < min {
		panic(fmt.Sprintf("sim: cross-lane post at %v violates lookahead (≥ %v required)", at, min))
	}
	ls.outbox[src] = append(ls.outbox[src], crossEvent{
		at: at, src: src, dst: dst, seq: ls.crossSeq[src], fn: fn,
	})
	ls.crossSeq[src]++
}

// lanePollEvents is how many events a lane executes between poll calls —
// the same cadence the single-threaded facade uses for context checks.
const lanePollEvents = 4096

// maxTime is the drain horizon once no cross-lane send instant remains.
const maxTime = Time(1<<63 - 1)

// Run drives all lanes to quiescence. workers bounds the goroutines
// executing lanes concurrently; ≤1 runs every epoch on the calling
// goroutine in lane order. Lane states and all cross-lane deliveries
// are byte-identical for every worker count. poll, when non-nil, is
// called periodically from lane execution (possibly concurrently) and
// aborts the run by returning an error.
func (ls *LaneSet) Run(workers int, poll func() error) error {
	if workers > len(ls.lanes) {
		workers = len(ls.lanes)
	}
	for {
		t, ok := ls.nextEventTime()
		if !ok {
			return nil
		}
		h := ls.horizon(t)
		if err := ls.runEpoch(h, workers, poll); err != nil {
			return err
		}
		ls.inject(h)
		ls.epochs++
		// Short epochs may never hit the in-lane poll cadence; check once
		// per barrier too so cancellation latency is bounded by an epoch.
		if poll != nil {
			if err := poll(); err != nil {
				return err
			}
		}
	}
}

// nextEventTime returns the earliest pending event time across lanes.
func (ls *LaneSet) nextEventTime() (Time, bool) {
	var min Time
	found := false
	for _, e := range ls.lanes {
		if t, ok := e.NextEventTime(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// horizon returns the epoch end for an epoch starting at the earliest
// pending event time t: every cross-lane delivery generated before the
// horizon is due at or after it.
func (ls *LaneSet) horizon(t Time) Time {
	if ls.grid == nil {
		return t + ls.lookahead
	}
	for ls.gridIdx < len(ls.grid) && ls.grid[ls.gridIdx] < t {
		ls.gridIdx++
	}
	if ls.gridIdx == len(ls.grid) {
		// No send instant remains: nothing can cross lanes any more,
		// so every lane is free to drain in one final epoch.
		return maxTime
	}
	return ls.grid[ls.gridIdx] + ls.lookahead
}

// runEpoch executes every lane's events with time < h.
func (ls *LaneSet) runEpoch(h Time, workers int, poll func() error) error {
	if workers <= 1 {
		for _, e := range ls.lanes {
			if err := runLaneTo(e, h, poll); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(ls.lanes))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ls.lanes) {
					return
				}
				errs[i] = runLaneTo(ls.lanes[i], h, poll)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runLaneTo executes one lane's events with time strictly before h.
func runLaneTo(e *Engine, h Time, poll func() error) error {
	n := 0
	for !e.stopped && len(e.events) > 0 && e.events[0].when < h {
		e.Step()
		if n++; poll != nil && n%lanePollEvents == 0 {
			if err := poll(); err != nil {
				return err
			}
		}
	}
	return nil
}

// inject drains the outboxes at a barrier, sorting the posted events
// into the deterministic total order (time, source lane, source
// sequence) and scheduling each into its destination lane. Injection
// order fixes the destination engines' internal sequence numbers, so
// same-timestamp deliveries tie-break identically on every run.
func (ls *LaneSet) inject(h Time) {
	ls.merged = ls.merged[:0]
	for src := range ls.outbox {
		ls.merged = append(ls.merged, ls.outbox[src]...)
		ls.outbox[src] = ls.outbox[src][:0]
	}
	if len(ls.merged) == 0 {
		return
	}
	sort.Slice(ls.merged, func(i, j int) bool {
		a, b := &ls.merged[i], &ls.merged[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i := range ls.merged {
		ev := &ls.merged[i]
		if ev.at < h {
			panic(fmt.Sprintf("sim: cross-lane event %d→%d at %v breaches epoch horizon %v (posted off the declared grid?)",
				ev.src, ev.dst, ev.at, h))
		}
		ls.lanes[ev.dst].Schedule(ev.at, ev.fn)
		ev.fn = nil // release the closure before the scratch is reused
	}
	ls.crossed += uint64(len(ls.merged))
}
