// Package monitor implements step 1 of the adaptive resource-management
// process (paper §4.1, Figure 1): run-time monitoring of subtask
// latencies against EQF-assigned individual deadlines, and identification
// of candidate subtasks for replication (slack eroded or deadline missed)
// and for replica shutdown (very high slack).
package monitor

import (
	"fmt"

	"repro/internal/deadline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
)

// Config holds the monitoring thresholds.
type Config struct {
	// SlackFraction is the minimum slack each subtask must keep on its
	// individual deadline; the paper fixes sl = 0.2·dl(st).
	SlackFraction float64
	// HighSlackFraction marks "very high slack": a subtask whose observed
	// latency is below (1 − HighSlackFraction)·dl(st) becomes a shutdown
	// candidate.
	HighSlackFraction float64
	// SmoothingWindow averages each stage's observed latency over the
	// last N periods before comparing against the slack bands; 0 or 1
	// reacts to single periods (the default — the paper's monitoring is
	// per-period).
	SmoothingWindow int
	// StalenessWindow, when positive, makes AnalyzeAt discard records
	// whose completion is older than this: after a crash freezes the
	// pipeline, an ancient "all fine" reading must not keep steering
	// adaptation. 0 — the default — trusts every record forever.
	StalenessWindow sim.Time
}

// DefaultConfig returns the paper's thresholds: 20 % required slack and a
// 60 % very-high-slack mark, reacting per period.
func DefaultConfig() Config {
	return Config{SlackFraction: 0.2, HighSlackFraction: 0.6, SmoothingWindow: 1}
}

func (c Config) validate() error {
	if c.SlackFraction < 0 || c.SlackFraction >= 1 {
		return fmt.Errorf("monitor: slack fraction %v out of [0,1)", c.SlackFraction)
	}
	if c.HighSlackFraction <= c.SlackFraction || c.HighSlackFraction >= 1 {
		return fmt.Errorf("monitor: high-slack fraction %v must be in (%v,1)",
			c.HighSlackFraction, c.SlackFraction)
	}
	if c.SmoothingWindow < 0 {
		return fmt.Errorf("monitor: negative smoothing window %d", c.SmoothingWindow)
	}
	if c.StalenessWindow < 0 {
		return fmt.Errorf("monitor: negative staleness window %v", c.StalenessWindow)
	}
	return nil
}

// Analysis lists the candidate stages detected in one period.
type Analysis struct {
	// Replicate are replicable stages whose slack eroded below the
	// required minimum (or that missed their deadline outright).
	Replicate []int
	// Shutdown are replicated stages showing very high slack.
	Shutdown []int
}

// Monitor watches one task's periodic records.
type Monitor struct {
	cfg        Config
	spec       task.Spec
	assignment deadline.Assignment
	// windows smooth each stage's observed latency when SmoothingWindow
	// exceeds one.
	windows []*stats.SlidingWindow
}

// New returns a monitor for the task with an initial deadline assignment.
func New(cfg Config, spec task.Spec, initial deadline.Assignment) (*Monitor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(initial.Subtask) != len(spec.Subtasks) {
		return nil, fmt.Errorf("monitor: assignment covers %d subtasks, task has %d",
			len(initial.Subtask), len(spec.Subtasks))
	}
	m := &Monitor{cfg: cfg, spec: spec, assignment: initial}
	if cfg.SmoothingWindow > 1 {
		m.windows = make([]*stats.SlidingWindow, len(spec.Subtasks))
		for i := range m.windows {
			m.windows[i] = stats.NewSlidingWindow(cfg.SmoothingWindow)
		}
	}
	return m, nil
}

// Config returns the thresholds in force.
func (m *Monitor) Config() Config { return m.cfg }

// Assignment returns the current per-subtask/message deadlines.
func (m *Monitor) Assignment() deadline.Assignment { return m.assignment }

// SetAssignment installs re-derived deadlines (after every adaptation
// action, per §4.1).
func (m *Monitor) SetAssignment(a deadline.Assignment) {
	if len(a.Subtask) != len(m.spec.Subtasks) {
		panic(fmt.Sprintf("monitor: assignment covers %d subtasks, task has %d",
			len(a.Subtask), len(m.spec.Subtasks)))
	}
	m.assignment = a
}

// SubtaskDeadline returns dl(st) for the stage.
func (m *Monitor) SubtaskDeadline(stage int) sim.Time { return m.assignment.Subtask[stage] }

// AnalyzeAt is Analyze with a staleness gate: a record completed more
// than StalenessWindow before now is discarded (analyzed as nil) instead
// of steering adaptation with obsolete observations. With a zero window
// it is exactly Analyze.
func (m *Monitor) AnalyzeAt(rec *task.PeriodRecord, now sim.Time) Analysis {
	if rec != nil && m.cfg.StalenessWindow > 0 && rec.CompletedAt < now-m.cfg.StalenessWindow {
		rec = nil
	}
	return m.Analyze(rec)
}

// Analyze classifies every stage of a completed period record.
func (m *Monitor) Analyze(rec *task.PeriodRecord) Analysis {
	if rec == nil {
		return Analysis{}
	}
	if len(rec.Stages) != len(m.spec.Subtasks) {
		panic(fmt.Sprintf("monitor: record has %d stages, task has %d",
			len(rec.Stages), len(m.spec.Subtasks)))
	}
	var out Analysis
	for i, st := range m.spec.Subtasks {
		lat := rec.Stages[i].ExecLatency()
		if m.windows != nil {
			m.windows[i].Push(lat.Milliseconds())
			lat = sim.FromMillis(m.windows[i].Mean())
		}
		if !st.Replicable {
			continue
		}
		dl := m.assignment.Subtask[i]
		required := dl - sim.Time(m.cfg.SlackFraction*float64(dl))
		switch {
		case lat > required:
			// Slack eroded below the minimum, or the deadline was
			// missed outright: candidate for replication.
			out.Replicate = append(out.Replicate, i)
		case rec.Stages[i].Replicas > 1 &&
			lat < sim.Time((1-m.cfg.HighSlackFraction)*float64(dl)):
			// Very high slack with spare replicas: candidate for
			// de-allocation.
			out.Shutdown = append(out.Shutdown, i)
		}
	}
	return out
}
