package network

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newSeg(t *testing.T) (*sim.Engine, *Segment) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewSegment(eng, DefaultConfig())
}

func TestWireBytes(t *testing.T) {
	_, s := newSeg(t)
	cfg := s.Config()
	// One-frame message.
	if got := s.WireBytes(100); got != 100+int64(cfg.FrameOverheadBytes)+int64(cfg.PerMessageOverheadBytes) {
		t.Errorf("WireBytes(100) = %d", got)
	}
	// Exactly one MTU → one frame.
	if got := s.WireBytes(1500); got != 1500+38+2048 {
		t.Errorf("WireBytes(1500) = %d", got)
	}
	// One byte over → two frames.
	if got := s.WireBytes(1501); got != 1501+2*38+2048 {
		t.Errorf("WireBytes(1501) = %d", got)
	}
	// Empty payload still burns a frame.
	if got := s.WireBytes(0); got != 38+2048 {
		t.Errorf("WireBytes(0) = %d", got)
	}
}

func TestTxTime(t *testing.T) {
	_, s := newSeg(t)
	// 100 Mbit/s = 12.5 bytes/µs; 2500 wire bytes → 200µs.
	payload := int64(2500 - 38 - 2048)
	if got := s.TxTime(payload); got != 200*sim.Microsecond {
		t.Errorf("TxTime = %v, want 200µs", got)
	}
}

func TestSingleMessageDelivery(t *testing.T) {
	eng, s := newSeg(t)
	m := &Message{From: 0, To: 1, PayloadBytes: 8000}
	var deliveredAt sim.Time
	m.OnDeliver = func(m *Message) { deliveredAt = m.DeliveredAt }
	s.Send(m)
	eng.Run()
	if !m.Delivered() {
		t.Fatal("message not delivered")
	}
	if want := s.TxTime(8000); deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if m.BufferDelay() != 0 {
		t.Errorf("buffer delay = %v on idle medium", m.BufferDelay())
	}
	if m.TotalDelay() != deliveredAt {
		t.Errorf("TotalDelay = %v", m.TotalDelay())
	}
	if s.Sent() != 1 {
		t.Errorf("Sent = %d", s.Sent())
	}
}

func TestQueueingDelayEmergesFromContention(t *testing.T) {
	eng, s := newSeg(t)
	m1 := &Message{From: 0, To: 1, PayloadBytes: 8000}
	m2 := &Message{From: 2, To: 3, PayloadBytes: 8000}
	s.Send(m1)
	s.Send(m2)
	eng.Run()
	tx := s.TxTime(8000)
	if m2.BufferDelay() != tx {
		t.Errorf("second message buffer delay = %v, want %v (one tx time)", m2.BufferDelay(), tx)
	}
	if m2.DeliveredAt != 2*tx {
		t.Errorf("second message delivered at %v, want %v", m2.DeliveredAt, 2*tx)
	}
}

func TestFIFOAcrossSenders(t *testing.T) {
	eng, s := newSeg(t)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Send(&Message{From: i, To: 5, PayloadBytes: 100,
			OnDeliver: func(*Message) { order = append(order, i) }})
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v, want FIFO", order)
		}
	}
}

func TestLocalDeliveryBypassesWire(t *testing.T) {
	eng, s := newSeg(t)
	m := &Message{From: 2, To: 2, PayloadBytes: 1 << 20}
	s.Send(m)
	eng.Run()
	if m.TotalDelay() != s.Config().LocalDelay {
		t.Errorf("local delivery took %v, want %v", m.TotalDelay(), s.Config().LocalDelay)
	}
	if s.BusyTime() != 0 {
		t.Errorf("local delivery consumed wire time %v", s.BusyTime())
	}
	if s.LocalSends() != 1 || s.Sent() != 0 {
		t.Errorf("counters: local=%d wire=%d", s.LocalSends(), s.Sent())
	}
}

func TestBusyTimeAndMeter(t *testing.T) {
	eng, s := newSeg(t)
	payload := int64(2500 - 38 - 2048) // 200µs on the wire
	s.Send(&Message{From: 0, To: 1, PayloadBytes: payload})
	meter := NewMeter(s)
	eng.RunUntil(400 * sim.Microsecond)
	if got := meter.Sample(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	if got := meter.Sample(); got != 0 {
		t.Errorf("zero-interval sample = %v", got)
	}
}

func TestBusyTimeIncludesInFlight(t *testing.T) {
	eng, s := newSeg(t)
	payload := int64(2500 - 38 - 2048) // 200µs on the wire
	s.Send(&Message{From: 0, To: 1, PayloadBytes: payload})
	checked := false
	eng.Schedule(50*sim.Microsecond, func() {
		if s.BusyTime() != 50*sim.Microsecond {
			t.Errorf("mid-flight BusyTime = %v", s.BusyTime())
		}
		checked = true
	})
	eng.Run()
	if !checked {
		t.Fatal("mid-flight check did not run")
	}
}

func TestUndeliveredAccessorsPanic(t *testing.T) {
	m := &Message{}
	defer func() {
		if recover() == nil {
			t.Error("BufferDelay of undelivered message did not panic")
		}
	}()
	m.BufferDelay()
}

func TestBadConfigPanics(t *testing.T) {
	eng := sim.NewEngine()
	for name, cfg := range map[string]Config{
		"bandwidth": {BandwidthBps: 0, MTU: 1500},
		"mtu":       {BandwidthBps: 1, MTU: 0},
		"overhead":  {BandwidthBps: 1, MTU: 1, FrameOverheadBytes: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad %s config did not panic", name)
				}
			}()
			NewSegment(eng, cfg)
		}()
	}
}

func TestNegativePayloadPanics(t *testing.T) {
	_, s := newSeg(t)
	defer func() {
		if recover() == nil {
			t.Error("negative payload did not panic")
		}
	}()
	s.Send(&Message{PayloadBytes: -1, From: 0, To: 1})
}

// Property: total medium busy time equals the sum of per-message tx times,
// and every message is delivered exactly when the preceding one finishes
// plus its own tx time (work-conserving FIFO).
func TestPropertyWorkConservingFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine()
		s := NewSegment(eng, DefaultConfig())
		msgs := make([]*Message, len(sizes))
		var wantBusy sim.Time
		for i, sz := range sizes {
			msgs[i] = &Message{From: i % 4, To: (i % 4) + 1, PayloadBytes: int64(sz)}
			wantBusy += s.TxTime(int64(sz))
			s.Send(msgs[i])
		}
		eng.Run()
		if s.BusyTime() != wantBusy {
			return false
		}
		var prevDone sim.Time
		for _, m := range msgs {
			if !m.Delivered() || m.SentAt != prevDone {
				return false
			}
			prevDone = m.DeliveredAt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: buffer delay grows (weakly) with position for simultaneous
// sends — the congestion behaviour eq. (5) linearizes.
func TestPropertyBufferDelayMonotoneInBacklog(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8%20) + 2
		eng := sim.NewEngine()
		s := NewSegment(eng, DefaultConfig())
		msgs := make([]*Message, n)
		for i := range msgs {
			msgs[i] = &Message{From: 0, To: 1, PayloadBytes: 4000}
			s.Send(msgs[i])
		}
		eng.Run()
		for i := 1; i < n; i++ {
			if msgs[i].BufferDelay() < msgs[i-1].BufferDelay() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLocalDeliveryFIFO(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSegment(eng, DefaultConfig())
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Send(&Message{From: 3, To: 3, PayloadBytes: int64(10 * (i + 1)),
			OnDeliver: func(*Message) { order = append(order, i) }})
	}
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("delivered %d local messages, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("local delivery order %v, want send order", order)
		}
	}
}

func TestMessagePoolReuse(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSegment(eng, DefaultConfig())
	m1 := s.AcquireMessage()
	m1.From, m1.To, m1.PayloadBytes = 0, 1, 500
	m1.OnDeliver = func(m *Message) { s.ReleaseMessage(m) }
	s.Send(m1)
	eng.Run()

	m2 := s.AcquireMessage()
	if m2 != m1 {
		t.Fatal("AcquireMessage did not reuse the released node")
	}
	if m2.delivered || m2.OnDeliver != nil || m2.PayloadBytes != 0 {
		t.Fatal("recycled message was not zeroed")
	}
	m2.From, m2.To, m2.PayloadBytes = 1, 0, 9000
	delivered := false
	m2.OnDeliver = func(*Message) { delivered = true }
	s.Send(m2)
	eng.Run()
	if !delivered {
		t.Fatal("recycled message was not delivered")
	}
	if got := s.Sent(); got != 2 {
		t.Fatalf("Sent = %d, want 2", got)
	}
}

func TestDropProbability(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.DropProb = 0.3
	cfg.LossSeed = 11
	s := NewSegment(eng, cfg)
	delivered, droppedCB := 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		s.Send(&Message{From: 0, To: 1, PayloadBytes: 100,
			OnDeliver: func(*Message) { delivered++ },
			OnDrop:    func(*Message) { droppedCB++ }})
	}
	eng.Run()
	if delivered+droppedCB != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", delivered, droppedCB, n)
	}
	if got := s.Dropped(); got != uint64(droppedCB) {
		t.Fatalf("Dropped() = %d, OnDrop fired %d times", got, droppedCB)
	}
	// 30% drop over 2000 messages: expect within a loose band.
	if droppedCB < n/5 || droppedCB > n/2 {
		t.Fatalf("dropped %d of %d, far from 30%%", droppedCB, n)
	}
	if s.Sent() != n {
		t.Fatalf("Sent = %d, want %d (drops still occupy the wire)", s.Sent(), n)
	}
}

func TestDropDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.DropProb = 0.25
		cfg.LossSeed = seed
		s := NewSegment(eng, cfg)
		var fates []bool
		for i := 0; i < 200; i++ {
			s.Send(&Message{From: 0, To: 1, PayloadBytes: 64,
				OnDeliver: func(*Message) { fates = append(fates, true) },
				OnDrop:    func(*Message) { fates = append(fates, false) }})
		}
		eng.Run()
		return fates
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d fate differs across identical runs", i)
		}
	}
	c := run(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different loss seeds produced identical fates")
	}
}

func TestJitterDelaysDelivery(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.JitterAmp = 2.0
	cfg.LossSeed = 9
	s := NewSegment(eng, cfg)
	base := s.TxTime(4096)
	sawLate := false
	for i := 0; i < 50; i++ {
		m := &Message{From: 0, To: 1, PayloadBytes: 4096}
		m.OnDeliver = func(m *Message) {
			lat := m.TotalDelay() - m.BufferDelay()
			if lat < base {
				t.Fatalf("delivery faster than tx time: %v < %v", lat, base)
			}
			if lat > base {
				sawLate = true
			}
		}
		s.Send(m)
	}
	eng.Run()
	if !sawLate {
		t.Fatal("JitterAmp=2 never delayed a delivery")
	}
}

func TestSpikeDelay(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.SpikeProb = 1
	cfg.SpikeDelay = 5 * sim.Millisecond
	cfg.LossSeed = 1
	s := NewSegment(eng, cfg)
	m := &Message{From: 0, To: 1, PayloadBytes: 100}
	var lat sim.Time
	m.OnDeliver = func(m *Message) { lat = m.TotalDelay() }
	s.Send(m)
	eng.Run()
	want := s.TxTime(100) + 5*sim.Millisecond
	if lat != want {
		t.Fatalf("spiked latency %v, want %v", lat, want)
	}
}

func TestPartitionDropsWireNotLocal(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Partitions = []Window{{Start: 0, End: sim.Second}}
	s := NewSegment(eng, cfg)
	wireDropped, localDelivered := false, false
	s.Send(&Message{From: 0, To: 1, PayloadBytes: 100,
		OnDeliver: func(*Message) { t.Error("wire message delivered during partition") },
		OnDrop:    func(*Message) { wireDropped = true }})
	s.Send(&Message{From: 2, To: 2, PayloadBytes: 100,
		OnDeliver: func(*Message) { localDelivered = true }})
	// After the partition heals, wire traffic flows again.
	healed := false
	eng.Schedule(2*sim.Second, func() {
		s.Send(&Message{From: 0, To: 1, PayloadBytes: 100,
			OnDeliver: func(*Message) { healed = true },
			OnDrop:    func(*Message) { t.Error("dropped after partition healed") }})
	})
	eng.Run()
	if !wireDropped || !localDelivered || !healed {
		t.Fatalf("wireDropped=%v localDelivered=%v healed=%v", wireDropped, localDelivered, healed)
	}
	if s.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped())
	}
}

// A reliable segment must not construct an RNG at all: loss behavior is
// opt-in and the clean event schedule stays untouched.
func TestReliableSegmentHasNoRNG(t *testing.T) {
	s := NewSegment(sim.NewEngine(), DefaultConfig())
	if s.rng != nil {
		t.Fatal("reliable segment allocated a loss RNG")
	}
}
