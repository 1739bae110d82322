package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// tracer is the traced run's recorder. It keeps spans in memory and
// writes them out when the run ends, and it switches the CPU profiler on
// and off in alternating blocks of the measured phase, so each
// workload's operations split into traced and untraced halves run under
// the same conditions: the difference of their medians is the tracing
// overhead.
type tracer struct {
	t0    time.Time
	block time.Duration

	mu    sync.Mutex
	spans []span

	on   atomic.Bool
	stop chan struct{}
	done chan struct{}
	cpu  []*bytes.Buffer // one CPU profile per traced block
}

// span is one timed call into a layer, in ns since the tracer started.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log. No workload comes near it at
// a run length of a minute; spans beyond it would be dropped.
const maxSpans = 500_000

func newTracer(window time.Duration) *tracer {
	block := min(max(window/10, 250*time.Millisecond), 2*time.Second)
	return &tracer{t0: time.Now(), block: block}
}

// active reports whether the profiler is on. Nil-safe.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// span records a finished call. Nil-safe.
func (t *tracer) span(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	}
}

// total sums the durations of the named spans, in seconds, and counts
// them.
func (t *tracer) total(name string) (secs float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			secs += float64(s.End-s.Start) / 1e9
			n++
		}
	}
	return secs, n
}

// meanMS is the mean duration of the named spans in ms, or 0.
func (t *tracer) meanMS(name string) float64 {
	secs, n := t.total(name)
	if n == 0 {
		return 0
	}
	return secs * 1e3 / float64(n)
}

// startProfiling begins the alternating untraced/traced blocks.
func (t *tracer) startProfiling() {
	if t == nil {
		return
	}
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		for {
			select {
			case <-t.stop:
				return
			case <-time.After(t.block):
			}
			buf := new(bytes.Buffer)
			if err := pprof.StartCPUProfile(buf); err != nil {
				return
			}
			t.on.Store(true)
			select {
			case <-t.stop:
			case <-time.After(t.block):
			}
			t.on.Store(false)
			pprof.StopCPUProfile()
			t.cpu = append(t.cpu, buf)
			select {
			case <-t.stop:
				return
			default:
			}
		}
	}()
}

// stopProfiling ends the blocks.
func (t *tracer) stopProfiling() {
	if t == nil || t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
}

// attributeLayers fills the <layer>.self_s and runtime.gc_self_s metrics
// from the CPU profiles of the traced blocks.
func (t *tracer) attributeLayers(r *report) error {
	for _, buf := range t.cpu {
		samples, err := parseProfile(buf.Bytes())
		if err != nil {
			return err
		}
		self, gc := attribute(samples)
		for l, s := range self {
			r.layers[l+".self_s"] += s
		}
		r.layers["runtime.gc_self_s"] += gc
	}
	return nil
}

// flush writes the span log as JSON lines.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
