package sim

import "fmt"

// timerNode is the engine-owned state of one scheduled event. Nodes are
// allocated in slabs and recycled through a free list once their event
// fires, so the steady-state Schedule path allocates nothing. Cancelled
// nodes are abandoned to the garbage collector instead of recycled: that
// keeps every outstanding Timer handle's view exact (see Timer).
type timerNode struct {
	when Time
	seq  uint64
	fn   func()
	eng  *Engine
	// gen increments each time the node is recycled; Timer handles carry
	// the generation they were issued with, so handles to past lives of a
	// node become inert instead of acting on the wrong event.
	gen uint64
	// idx is the node's position in the event heap, -1 while off-heap.
	idx       int32
	cancelled bool
	fired     bool
	nextFree  *timerNode
}

// Timer is a cheap value handle to a scheduled event; the zero Timer is
// inert. Handles stay valid forever: once the event fires, the engine may
// recycle the underlying node for a later Schedule, and this handle then
// reports Fired() = true and ignores Cancel. A cancelled event's node is
// never recycled, so Cancelled() stays exact.
type Timer struct {
	n    *timerNode
	gen  uint64
	when Time
}

// When returns the virtual time at which the timer was scheduled to fire.
func (t Timer) When() Time { return t.when }

// live reports whether the handle still refers to the node's current life.
func (t Timer) live() bool { return t.n != nil && t.n.gen == t.gen }

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer (or the zero Timer) is a no-op.
// The event is removed from the queue immediately.
func (t Timer) Cancel() {
	if !t.live() || t.n.fired || t.n.cancelled {
		return
	}
	n := t.n
	n.cancelled = true
	if n.idx >= 0 {
		n.eng.heapRemove(int(n.idx))
	}
	// Abandon the node to the GC (never recycled): outstanding handles —
	// including this one's copies — keep observing the cancellation.
	n.fn = nil
}

// Cancelled reports whether Cancel was called before the timer fired.
func (t Timer) Cancelled() bool { return t.live() && t.n.cancelled }

// Fired reports whether the timer's callback has run. A recycled node
// implies the event fired: only fired nodes re-enter the pool.
func (t Timer) Fired() bool {
	if t.n == nil {
		return false
	}
	return t.n.gen != t.gen || t.n.fired
}

// timerSlabSize is the node allocation batch: one slab allocation serves
// this many Schedules before the free list takes over.
const timerSlabSize = 64

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; run one Engine per goroutine (experiment sweeps run many
// independent engines in parallel).
//
// The event queue is a monomorphic 4-ary indexed heap: no interface
// boxing, shallower sift paths than a binary heap, and eager removal of
// cancelled events (no tombstones). Pop order is the total order
// (when, seq), so the heap's shape is unobservable in results.
type Engine struct {
	now     Time
	events  []*timerNode
	seq     uint64
	stopped bool
	// fired counts executed (non-cancelled) events, for diagnostics.
	fired uint64

	free      *timerNode
	slab      []timerNode
	slabAlloc uint64 // slabs allocated, for diagnostics
}

// NewEngine returns an engine with virtual time zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending events. Cancelled events leave the
// queue immediately and are not counted.
func (e *Engine) Len() int { return len(e.events) }

// EventsFired returns the number of events executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// TimerSlabs returns the number of timer-node slabs allocated so far —
// the engine's total allocation footprint for timers is
// TimerSlabs()·timerSlabSize nodes, however many events have been
// scheduled.
func (e *Engine) TimerSlabs() uint64 { return e.slabAlloc }

// newNode takes a node from the free list, or carves one from the slab.
func (e *Engine) newNode() *timerNode {
	if n := e.free; n != nil {
		e.free = n.nextFree
		n.nextFree = nil
		return n
	}
	if len(e.slab) == 0 {
		e.slab = make([]timerNode, timerSlabSize)
		e.slabAlloc++
	}
	n := &e.slab[0]
	e.slab = e.slab[1:]
	n.eng = e
	return n
}

// recycle returns a fired node to the free list for the next Schedule.
func (e *Engine) recycle(n *timerNode) {
	n.gen++
	n.fn = nil
	n.cancelled = false
	n.fired = false
	n.nextFree = e.free
	e.free = n
}

// Schedule arranges for fn to run at virtual time at. Scheduling in the
// past panics: it always indicates a model bug, and silently clamping
// would mask causality violations.
func (e *Engine) Schedule(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: Schedule at %v before now %v", at, e.now))
	}
	seq := e.seq
	e.seq++
	return e.push(at, seq, fn)
}

// push queues fn at (at, seq) without touching the sequence counter.
func (e *Engine) push(at Time, seq uint64, fn func()) Timer {
	n := e.newNode()
	n.when = at
	n.seq = seq
	n.fn = fn
	e.heapPush(n)
	return Timer{n: n, gen: n.gen, when: at}
}

// SchedulePeriodic arranges for fn(i) to run at start + i·period for
// i = 0..n-1, firing in exactly the order that n Schedule calls made now
// would: it reserves the n sequence numbers those calls would have taken,
// and each occurrence carries its own. Only the next occurrence is ever
// in the queue — occurrence i re-arms occurrence i+1 just before fn(i)
// runs — and every later occurrence orders after it in (when, seq), so
// the pop order of the whole queue is unchanged while Len stays small.
// A nil fn, a start before now or a negative period panics; n ≤ 0
// schedules nothing. Occurrences cannot be cancelled.
func (e *Engine) SchedulePeriodic(start, period Time, n int, fn func(i int)) {
	if fn == nil {
		panic("sim: SchedulePeriodic with nil callback")
	}
	if start < e.now {
		panic(fmt.Sprintf("sim: SchedulePeriodic at %v before now %v", start, e.now))
	}
	if period < 0 {
		panic(fmt.Sprintf("sim: SchedulePeriodic with negative period %v", period))
	}
	if n <= 0 {
		return
	}
	base := e.seq
	e.seq += uint64(n)
	next := 0
	var fire func()
	fire = func() {
		i := next
		next++
		if next < n {
			e.push(start+Time(next)*period, base+uint64(next), fire)
		}
		fn(i)
	}
	e.push(start, base, fire)
}

// After arranges for fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: After with negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Step executes the next pending event, advancing virtual time to it.
// It returns false when the queue is empty or the engine is stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.events) == 0 {
		return false
	}
	n := e.heapPopMin()
	e.now = n.when
	n.fired = true
	e.fired++
	fn := n.fn
	fn()
	e.recycle(n)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ until, then sets the clock to
// exactly until. Events scheduled at until still fire.
func (e *Engine) RunUntil(until Time) {
	for !e.stopped && len(e.events) > 0 && e.events[0].when <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// NextEventTime returns the time of the next pending event and true, or
// zero and false when the queue is empty.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].when, true
}

// Stop halts Run/RunUntil after the current event completes. The engine
// can be resumed with Resume.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears a previous Stop.
func (e *Engine) Resume() { e.stopped = false }

// Stopped reports whether Stop has been called without a matching Resume.
func (e *Engine) Stopped() bool { return e.stopped }

// --- 4-ary indexed min-heap on (when, seq) ------------------------------

// less is the total event order: time first, schedule order second.
func eventLess(a, b *timerNode) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(n *timerNode) {
	e.events = append(e.events, n)
	n.idx = int32(len(e.events) - 1)
	e.siftUp(len(e.events) - 1)
}

func (e *Engine) heapPopMin() *timerNode {
	n := e.events[0]
	e.heapRemove(0)
	return n
}

// heapRemove deletes the node at position i, restoring heap order.
func (e *Engine) heapRemove(i int) {
	last := len(e.events) - 1
	n := e.events[i]
	if i != last {
		moved := e.events[last]
		e.events[i] = moved
		moved.idx = int32(i)
	}
	e.events[last] = nil
	e.events = e.events[:last]
	n.idx = -1
	if i < last {
		// The relocated node may need to move either direction.
		e.siftDown(i)
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	n := e.events[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := e.events[parent]
		if !eventLess(n, p) {
			break
		}
		e.events[i] = p
		p.idx = int32(i)
		i = parent
	}
	e.events[i] = n
	n.idx = int32(i)
}

func (e *Engine) siftDown(i int) {
	n := e.events[i]
	size := len(e.events)
	for {
		first := 4*i + 1
		if first >= size {
			break
		}
		min := first
		end := first + 4
		if end > size {
			end = size
		}
		for c := first + 1; c < end; c++ {
			if eventLess(e.events[c], e.events[min]) {
				min = c
			}
		}
		if !eventLess(e.events[min], n) {
			break
		}
		moved := e.events[min]
		e.events[i] = moved
		moved.idx = int32(i)
		i = min
	}
	e.events[i] = n
	n.idx = int32(i)
}
