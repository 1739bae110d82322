package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/trace"
)

// chromeEvent is one trace_event entry. Timestamps are microseconds of
// simulation time, the unit the trace_event format expects.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Synthetic pids: nodes use their id, the network medium and the control
// plane (allocator/monitor instants) get their own rows.
const (
	pidNetwork = 1000
	pidControl = 1001
)

func us(t sim.Time) float64 { return t.Microseconds() }

// WriteChromeTrace renders the span/event buffers in Chrome trace_event
// JSON, loadable in Perfetto or chrome://tracing: one process per node
// (threads = pipeline stages), one for the network medium (threads =
// source nodes), and one for control-plane instants.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	meta := func(pid int, name string) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
	}
	seenNode := map[int]bool{}
	node := func(pid int) {
		if !seenNode[pid] {
			seenNode[pid] = true
			meta(pid, fmt.Sprintf("node %d", pid))
		}
	}
	meta(pidNetwork, "network segment")
	meta(pidControl, "resource manager")

	for _, s := range r.spans {
		if s.Kind == trace.KindExec {
			node(int(s.Proc))
			dur := us(s.At - s.Mid)
			wait := us(s.Mid - s.Start)
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("%s/st%d #%d", s.Task, s.Stage, s.Period),
				Cat:  "exec", Ph: "X", TS: us(s.Mid), Dur: &dur,
				PID: int(s.Proc), TID: int(s.Stage),
				Args: map[string]any{"items": s.Value, "queue_wait_us": wait, "period": s.Period},
			})
			continue
		}
		name := fmt.Sprintf("%s→st%d #%d", s.Task, s.Stage, s.Period)
		if buf := us(s.Mid - s.Start); buf > 0 {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: name + " (buffer)",
				Cat:  "net-buffer", Ph: "X", TS: us(s.Start), Dur: &buf,
				PID: pidNetwork, TID: int(s.From),
				Args: map[string]any{"bytes": s.Value, "to": s.Proc},
			})
		}
		wire := us(s.At - s.Mid)
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name,
			Cat:  "net-wire", Ph: "X", TS: us(s.Mid), Dur: &wire,
			PID: pidNetwork, TID: int(s.From),
			Args: map[string]any{"bytes": s.Value, "to": s.Proc},
		})
	}
	for _, e := range r.instants {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: string(e.Action.Kind), Cat: "adaptation", Ph: "i", TS: us(e.At),
			PID: pidControl, TID: int(e.Stage) + 1, S: "p",
			Args: map[string]any{"task": e.Task, "period": e.Period, "value": e.Value},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("telemetry: chrome trace: %w", err)
	}
	return nil
}
