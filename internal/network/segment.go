// Package network models the shared communication medium of the paper's
// system (§3, item 12; Table 1): the distributed processors share a single
// Ethernet segment (IEEE 802.3 flavour) at 100 Mbit/s.
//
// The medium is half-duplex: transmissions serialize in FIFO order across
// all senders, so queueing ("buffer") delay emerges from contention — the
// quantity the paper's eq. (5) models as a linear function of the total
// periodic workload. Messages between subtasks co-located on one node
// bypass the wire at a small fixed local-delivery cost.
package network

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/sim"
)

// Config holds segment parameters. The defaults mirror Table 1 plus
// standard Ethernet framing.
type Config struct {
	// BandwidthBps is the link transmission speed in bits per second.
	BandwidthBps int64
	// MTU is the per-frame payload capacity in bytes.
	MTU int
	// FrameOverheadBytes is per-frame framing cost (preamble, header,
	// FCS, inter-frame gap).
	FrameOverheadBytes int
	// PerMessageOverheadBytes models transport/stack cost paid once per
	// message (connection headers, acknowledgements). It is what makes a
	// scatter of many small messages more expensive than one large one.
	PerMessageOverheadBytes int
	// LocalDelay is the fixed delivery latency for same-node messages.
	LocalDelay sim.Time

	// The fields below model a degraded segment. All-zero values keep the
	// segment perfectly reliable and draw nothing from the RNG, so the
	// event schedule is bit-identical to a build without them.

	// DropProb is the probability a wire message is lost after occupying
	// the medium (the bits were transmitted but never arrived). In [0, 1).
	DropProb float64
	// JitterAmp adds a uniform extra delivery delay in
	// [0, JitterAmp × txTime] after transmission completes, modeling
	// stack and switch variance. Must be ≥ 0.
	JitterAmp float64
	// SpikeProb is the probability a delivered message suffers an extra
	// SpikeDelay latency spike (e.g. a retransmit storm elsewhere on the
	// LAN). In [0, 1].
	SpikeProb float64
	// SpikeDelay is the extra latency applied when a spike fires.
	SpikeDelay sim.Time
	// LossSeed seeds the segment's private loss/jitter RNG stream. The
	// core facade defaults it to the run seed so chaos runs stay
	// deterministic per seed.
	LossSeed uint64
	// Partitions are transient whole-segment outages: any wire message
	// whose transmission completes inside a window is lost. Must be
	// time-sorted and non-overlapping. Local (same-node) delivery is
	// unaffected.
	Partitions []Window
}

// Window is a half-open outage interval [Start, End).
type Window struct {
	Start, End sim.Time
}

// WireBytes returns the bytes a message of the given payload occupies on
// the wire, including framing and per-message overhead.
func (c Config) WireBytes(payload int64) int64 {
	if payload < 0 {
		panic(fmt.Sprintf("network: negative payload %d", payload))
	}
	frames := (payload + int64(c.MTU) - 1) / int64(c.MTU)
	if frames == 0 {
		frames = 1
	}
	return payload + frames*int64(c.FrameOverheadBytes) + int64(c.PerMessageOverheadBytes)
}

// TxTime returns the pure transmission time for the given payload — the
// paper's D_trans = d/ls, with framing included.
func (c Config) TxTime(payload int64) sim.Time {
	if c.BandwidthBps <= 0 {
		panic(fmt.Sprintf("network: non-positive bandwidth %d", c.BandwidthBps))
	}
	bits := c.WireBytes(payload) * 8
	return sim.Time(float64(bits) / float64(c.BandwidthBps) * float64(sim.Second))
}

// CrossLaneDelay returns the fixed delivery latency of one inter-segment
// message in a lane-partitioned run: transmission time of the payload on
// an uplink of this segment's speed, plus the local stack cost. No
// cross-lane message can arrive sooner, which makes this the conservative
// lookahead of the lane epoch protocol.
func (c Config) CrossLaneDelay(payload int64) sim.Time {
	return c.TxTime(payload) + c.LocalDelay
}

// lossy reports whether any degradation knob needs the RNG.
func (c Config) lossy() bool {
	return c.DropProb > 0 || c.JitterAmp > 0 || c.SpikeProb > 0
}

// DefaultConfig returns the Table 1 segment: 100 Mbit/s shared Ethernet.
func DefaultConfig() Config {
	return Config{
		BandwidthBps:            100_000_000,
		MTU:                     1500,
		FrameOverheadBytes:      38,
		PerMessageOverheadBytes: 2048,
		LocalDelay:              20 * sim.Microsecond,
	}
}

// Message is one inter-subtask transfer.
type Message struct {
	From, To     int // node ids
	PayloadBytes int64
	Meta         any
	OnDeliver    func(m *Message)
	// OnDrop fires instead of OnDeliver when the segment loses the
	// message (drop probability or partition). The segment does not
	// retransmit; recovery is the sender's business.
	OnDrop func(m *Message)

	EnqueuedAt  sim.Time
	SentAt      sim.Time // transmission start (equals EnqueuedAt for local)
	DeliveredAt sim.Time
	delivered   bool
	nextFree    *Message
}

// Delivered reports whether the message has reached its destination.
func (m *Message) Delivered() bool { return m.delivered }

// BufferDelay returns the time the message waited before transmission
// began — the paper's D_buf. It panics if the message is undelivered.
func (m *Message) BufferDelay() sim.Time {
	if !m.delivered {
		panic("network: BufferDelay of undelivered message")
	}
	return m.SentAt - m.EnqueuedAt
}

// TotalDelay returns enqueue-to-delivery latency — the paper's ecd.
func (m *Message) TotalDelay() sim.Time {
	if !m.delivered {
		panic("network: TotalDelay of undelivered message")
	}
	return m.DeliveredAt - m.EnqueuedAt
}

// msgRing is a circular FIFO of messages: dequeues are index updates, not
// slice reallocations, so steady-state traffic allocates nothing.
type msgRing struct {
	buf  []*Message
	head int
	n    int
}

func (r *msgRing) len() int { return r.n }

func (r *msgRing) push(m *Message) {
	if r.n == len(r.buf) {
		size := 2 * len(r.buf)
		if size < 4 {
			size = 4
		}
		buf := make([]*Message, size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = m
	r.n++
}

func (r *msgRing) popFront() *Message {
	m := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return m
}

// Segment is the shared medium.
type Segment struct {
	eng *sim.Engine
	cfg Config

	queue      msgRing
	localQueue msgRing // same-node sends awaiting their fixed-delay timer
	busy       bool
	inflight   *Message
	inflightTx sim.Time

	// Cached callbacks: one closure alloc per segment, not per message.
	// Delivery timers are still scheduled one-per-send so the engine's
	// (when, seq) event order is identical to the naive implementation.
	onTxDone       func()
	onLocalDeliver func()

	freeMsg *Message // recycled Message nodes (see AcquireMessage)

	// Degradation state. rng is nil unless a loss/jitter knob is set, so
	// a reliable segment makes zero draws and schedules zero extra events.
	rng     *rand.Rand
	partIdx int // first partition window not yet wholly in the past

	cumBusy    sim.Time
	busyStart  sim.Time
	sent       uint64
	localSends uint64
	dropped    uint64
}

// NewSegment returns a segment with the given configuration.
func NewSegment(eng *sim.Engine, cfg Config) *Segment {
	if cfg.BandwidthBps <= 0 {
		panic(fmt.Sprintf("network: non-positive bandwidth %d", cfg.BandwidthBps))
	}
	if cfg.MTU <= 0 {
		panic(fmt.Sprintf("network: non-positive MTU %d", cfg.MTU))
	}
	if cfg.FrameOverheadBytes < 0 || cfg.PerMessageOverheadBytes < 0 || cfg.LocalDelay < 0 {
		panic("network: negative overhead configuration")
	}
	if cfg.DropProb < 0 || cfg.DropProb >= 1 {
		panic(fmt.Sprintf("network: drop probability %v outside [0,1)", cfg.DropProb))
	}
	if cfg.JitterAmp < 0 || cfg.SpikeProb < 0 || cfg.SpikeProb > 1 || cfg.SpikeDelay < 0 {
		panic("network: negative jitter/spike configuration")
	}
	for i, w := range cfg.Partitions {
		if w.End <= w.Start || (i > 0 && w.Start < cfg.Partitions[i-1].End) {
			panic(fmt.Sprintf("network: partition windows must be sorted and non-overlapping, got %+v", cfg.Partitions))
		}
	}
	s := &Segment{eng: eng, cfg: cfg}
	s.onTxDone = s.txDone
	s.onLocalDeliver = s.localDeliver
	if cfg.lossy() {
		s.rng = sim.NewRand(cfg.LossSeed, 0x10c5)
	}
	return s
}

// AcquireMessage returns a zeroed Message, reusing a previously released
// one when available. Pair with ReleaseMessage on hot paths to keep
// steady-state traffic allocation-free; plain &Message{} remains valid.
func (s *Segment) AcquireMessage() *Message {
	m := s.freeMsg
	if m == nil {
		return &Message{}
	}
	s.freeMsg = m.nextFree
	*m = Message{}
	return m
}

// ReleaseMessage recycles a message for a later AcquireMessage. The caller
// must be done with it: typically called from (or after) the message's
// OnDeliver callback, never while the message is queued or in flight.
func (s *Segment) ReleaseMessage(m *Message) {
	*m = Message{}
	m.nextFree = s.freeMsg
	s.freeMsg = m
}

// Config returns the segment configuration.
func (s *Segment) Config() Config { return s.cfg }

// WireBytes returns the bytes a message of the given payload occupies on
// the wire, including framing and per-message overhead.
func (s *Segment) WireBytes(payload int64) int64 { return s.cfg.WireBytes(payload) }

// TxTime returns the pure transmission time for the given payload — the
// paper's D_trans = d/ls, with framing included.
func (s *Segment) TxTime(payload int64) sim.Time { return s.cfg.TxTime(payload) }

// Send enqueues a message for delivery. Same-node messages bypass the
// medium entirely.
func (s *Segment) Send(m *Message) {
	if m.PayloadBytes < 0 {
		panic(fmt.Sprintf("network: message with negative payload %d", m.PayloadBytes))
	}
	now := s.eng.Now()
	m.EnqueuedAt = now
	if m.From == m.To {
		s.localSends++
		m.SentAt = now
		// All local deliveries share the same fixed delay, so the timers
		// fire in schedule order and the FIFO ring matches them exactly.
		s.localQueue.push(m)
		s.eng.After(s.cfg.LocalDelay, s.onLocalDeliver)
		return
	}
	s.queue.push(m)
	if !s.busy {
		s.transmitNext()
	}
}

// localDeliver completes the oldest pending same-node delivery.
func (s *Segment) localDeliver() {
	m := s.localQueue.popFront()
	m.DeliveredAt = s.eng.Now()
	m.delivered = true
	if m.OnDeliver != nil {
		m.OnDeliver(m)
	}
}

func (s *Segment) transmitNext() {
	if s.queue.len() == 0 {
		s.busy = false
		s.inflight = nil
		return
	}
	m := s.queue.popFront()
	s.busy = true
	s.busyStart = s.eng.Now()
	m.SentAt = s.busyStart
	s.inflight = m
	s.inflightTx = s.TxTime(m.PayloadBytes)
	s.eng.After(s.inflightTx, s.onTxDone)
}

// txDone completes the in-flight transmission. On a degraded segment the
// message may then be lost (partition, drop probability) or delayed
// (jitter, spike); every branch below is gated on its own knob so a
// reliable segment takes the exact event schedule it always has.
func (s *Segment) txDone() {
	m, tx := s.inflight, s.inflightTx
	s.cumBusy += tx
	s.sent++
	now := s.eng.Now()
	if len(s.cfg.Partitions) > 0 && s.inPartition(now) {
		s.drop(m)
		return
	}
	if s.cfg.DropProb > 0 && s.rng.Float64() < s.cfg.DropProb {
		s.drop(m)
		return
	}
	var extra sim.Time
	if s.cfg.JitterAmp > 0 {
		extra = sim.Time(float64(tx) * s.cfg.JitterAmp * s.rng.Float64())
	}
	if s.cfg.SpikeProb > 0 && s.rng.Float64() < s.cfg.SpikeProb {
		extra += s.cfg.SpikeDelay
	}
	if extra > 0 {
		// The medium is free while the message limps through the stack;
		// late deliveries ride a per-message timer.
		s.transmitNext()
		s.eng.After(extra, func() { s.deliver(m) })
		return
	}
	m.DeliveredAt = now
	m.delivered = true
	s.transmitNext()
	if m.OnDeliver != nil {
		m.OnDeliver(m)
	}
}

// deliver completes a jitter-delayed wire message.
func (s *Segment) deliver(m *Message) {
	m.DeliveredAt = s.eng.Now()
	m.delivered = true
	if m.OnDeliver != nil {
		m.OnDeliver(m)
	}
}

// drop loses a transmitted message: the bits occupied the wire but never
// arrived; the sender hears about it only through OnDrop.
func (s *Segment) drop(m *Message) {
	s.dropped++
	s.transmitNext()
	if m.OnDrop != nil {
		m.OnDrop(m)
	}
}

// inPartition advances the partition cursor (transmission completions are
// monotonic in time) and reports whether now falls inside an outage.
func (s *Segment) inPartition(now sim.Time) bool {
	ps := s.cfg.Partitions
	for s.partIdx < len(ps) && ps[s.partIdx].End <= now {
		s.partIdx++
	}
	return s.partIdx < len(ps) && ps[s.partIdx].Start <= now
}

// Sent returns the number of messages fully transmitted over the wire.
func (s *Segment) Sent() uint64 { return s.sent }

// LocalSends returns the number of same-node deliveries.
func (s *Segment) LocalSends() uint64 { return s.localSends }

// Dropped returns the number of wire messages lost to drop probability or
// partitions.
func (s *Segment) Dropped() uint64 { return s.dropped }

// BusyTime returns cumulative medium-busy time including the in-flight
// transmission.
func (s *Segment) BusyTime() sim.Time {
	t := s.cumBusy
	if s.busy {
		t += s.eng.Now() - s.busyStart
	}
	return t
}

// Meter samples segment utilization over successive intervals.
type Meter struct {
	s        *Segment
	lastBusy sim.Time
	lastAt   sim.Time
}

// NewMeter returns a meter anchored at the current time.
func NewMeter(s *Segment) *Meter {
	return &Meter{s: s, lastBusy: s.BusyTime(), lastAt: s.eng.Now()}
}

// Sample returns the utilization (0..1) since the previous Sample and
// re-anchors the meter. A zero-length interval yields 0.
func (m *Meter) Sample() float64 {
	now := m.s.eng.Now()
	busy := m.s.BusyTime()
	dt := now - m.lastAt
	db := busy - m.lastBusy
	m.lastAt, m.lastBusy = now, busy
	if dt <= 0 {
		return 0
	}
	return float64(db) / float64(dt)
}
