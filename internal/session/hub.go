// Package session runs live simulation sessions: long-running observed
// runs whose state stream — snapshots and diffs — fans out to any
// number of concurrent subscribers without ever blocking the simulation
// loop.
//
// Its Hub is the one fan-out behind every rmserved event stream: a
// session's snapshot/diff frames and a job's progress frames alike. The
// discipline is drop-to-snapshot: every subscriber owns a bounded queue
// of pending frames, and a subscriber that falls a full queue behind is
// evicted — its queue is cleared and its next read returns the
// stream's current snapshot instead of the missed frames. Publishing
// therefore never waits on a consumer; slow readers lose intermediate
// frames, never correctness, because a snapshot plus the frames after
// it describes exactly the state the stream does.
package session

import (
	"context"
	"errors"
	"sync"

	"repro/internal/api"
)

// ErrClosed is returned by Subscriber.Next once the stream has ended
// and its terminal frame has been delivered.
var ErrClosed = errors.New("session: stream closed")

const (
	// replayWindow is how many recent frames a live hub keeps for
	// Last-Event-ID resume.
	replayWindow = 1024
	// defaultBuffer is a subscriber's queue capacity when Subscribe is
	// not given one.
	defaultBuffer = 256
)

// Hub fans one event stream out to its subscribers. The zero value is
// an open, empty stream. One publisher (calling Publish, then Close)
// and any number of subscriber goroutines may use it concurrently.
type Hub struct {
	mu sync.Mutex
	// seq is the Seq of the latest frame. The publisher numbers frames
	// 1, 2, 3, … in publish order; seq is the SSE id and the
	// Last-Event-ID resume key.
	seq uint64
	// snap is the frame a lagging subscriber resyncs from; its Type is
	// empty until the first publish. After Close it is the terminal
	// frame.
	snap   api.Event
	closed bool
	// replay holds recent frames — frame q at replay[(q-1)%replayWindow]
	// — so a reconnect inside the window replays the missed tail instead
	// of resyncing. It grows with the stream up to replayWindow, and a
	// closed hub drops it: every joiner of a closed stream gets the
	// terminal frame alone.
	replay    []api.Event
	subs      map[*Subscriber]struct{}
	evictions uint64
}

// Publish appends frame to the stream; snap is what a subscriber that
// falls behind from here on resyncs from (both carry frame's Seq). A
// job publishes its frame as both; a session publishes a diff and the
// full state. It never blocks: subscribers that cannot absorb the
// frame are evicted to lagged.
func (h *Hub) Publish(frame, snap api.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if len(h.replay) < replayWindow {
		h.replay = append(h.replay, frame)
	} else {
		h.replay[(frame.Seq-1)%replayWindow] = frame
	}
	h.snap = snap
	h.fanOutLocked(frame)
}

// Close ends the stream on final, the frame that carries its terminal
// state. Every attached subscriber receives it (a lagged one resyncs to
// it), and so does every later joiner, whatever position it resumes
// from; then reads return ErrClosed.
func (h *Hub) Close(final api.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	h.snap, h.replay = final, nil
	h.fanOutLocked(final)
}

// fanOutLocked pushes the frame to every subscriber, evicting the ones
// whose queue is full.
func (h *Hub) fanOutLocked(frame api.Event) {
	h.seq = frame.Seq
	for s := range h.subs {
		if !s.lagged && !s.push(frame) {
			s.lagged = true
			h.evictions++
		}
		s.signal()
	}
}

// Subscribe attaches a new subscriber. lastEventID is the stream
// position the caller has already seen (0 for a fresh join). A resume
// inside the replay window whose missed tail fits the queue gets that
// tail; a resume at the head of a live stream waits for the next frame;
// anything else — a fresh join, a stale or unknown position, any join
// of a closed stream — starts lagged, so its first read is the current
// snapshot. buffer caps the subscriber's queue (≤ 0 means 256).
func (h *Hub) Subscribe(lastEventID uint64, buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = defaultBuffer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &Subscriber{hub: h, limit: buffer, notify: make(chan struct{}, 1)}
	missed := h.seq - lastEventID
	switch {
	case h.closed || lastEventID > h.seq:
		s.lagged = true
	case missed == 0:
	case lastEventID > 0 && missed <= uint64(len(h.replay)) && missed <= uint64(buffer):
		for q := lastEventID + 1; q <= h.seq; q++ {
			s.push(h.replay[(q-1)%replayWindow])
		}
	default:
		s.lagged = true
	}
	if h.subs == nil {
		h.subs = make(map[*Subscriber]struct{})
	}
	h.subs[s] = struct{}{}
	return s
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Evictions returns how many times a slow subscriber was reset to a
// snapshot.
func (h *Hub) Evictions() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.evictions
}

// Subscriber is one attached consumer: a bounded queue of pending
// frames drained by Next. Not safe for concurrent use by multiple
// goroutines (each stream handler owns one).
type Subscriber struct {
	hub *Hub
	// queue[head:] are the pending frames, at most limit of them. The
	// backing array grows on demand, so a short stream never pays for
	// the full limit.
	queue  []api.Event
	head   int
	limit  int
	lagged bool
	notify chan struct{}
}

// push appends under the hub lock; a full queue clears itself and
// reports the overflow so the hub can mark the subscriber lagged.
func (s *Subscriber) push(ev api.Event) bool {
	if len(s.queue)-s.head == s.limit {
		s.reset()
		return false
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, ev)
	return true
}

func (s *Subscriber) pop() api.Event {
	ev := s.queue[s.head]
	s.queue[s.head] = api.Event{}
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	return ev
}

// reset drops every pending frame.
func (s *Subscriber) reset() {
	clear(s.queue)
	s.queue, s.head = s.queue[:0], 0
}

// signal wakes a blocked Next without ever blocking the caller.
func (s *Subscriber) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next returns the next frame, blocking until one is available, the
// stream has closed and its terminal frame was delivered (ErrClosed),
// or ctx is done (ctx.Err()). An evicted subscriber's next read is the
// current snapshot; pending frames are discarded since the snapshot
// subsumes them. Callers implement heartbeats by passing a deadline
// context and treating context.DeadlineExceeded as "idle".
func (s *Subscriber) Next(ctx context.Context) (api.Event, error) {
	h := s.hub
	for {
		h.mu.Lock()
		switch {
		case s.lagged && h.snap.Type != "":
			s.lagged = false
			s.reset()
			ev := h.snap
			h.mu.Unlock()
			return ev, nil
		case len(s.queue) > s.head:
			ev := s.pop()
			h.mu.Unlock()
			return ev, nil
		case h.closed:
			h.mu.Unlock()
			return api.Event{}, ErrClosed
		}
		h.mu.Unlock()
		select {
		case <-s.notify:
		case <-ctx.Done():
			return api.Event{}, ctx.Err()
		}
	}
}

// Close detaches the subscriber; its pending frames are dropped. The
// last one out frees the subscriber set, so the hubs of the many
// finished jobs a daemon keeps hold no empty maps.
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, s)
	if len(h.subs) == 0 {
		h.subs = nil
	}
}
