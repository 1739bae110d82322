// Package core is the paper's adaptive resource-management system
// assembled end to end: it builds the Table 1 cluster (six homogeneous
// nodes with round-robin CPU scheduling on a shared 100 Mbit/s Ethernet
// segment), deploys periodic pipeline tasks on it, drives them with a
// workload pattern, monitors subtask slack against EQF deadlines, and
// adapts replica placement each period with either the predictive
// (Figure 5) or the non-predictive (Figure 7) allocator.
package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/cpu"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

// Algorithm names the allocation policy driving step 2 of the management
// process. Every name resolves through the internal/policy registry; the
// constants below are the built-ins.
type Algorithm string

// The two algorithms compared in §5, the extension baselines, and the
// graceful-degradation policies.
const (
	// Predictive is the paper's contribution (Figure 5).
	Predictive Algorithm = "predictive"
	// NonPredictive is the paper's baseline (Figure 7).
	NonPredictive Algorithm = "non-predictive"
	// Greedy adds one replica per trigger with no forecast (extension).
	Greedy Algorithm = "greedy"
	// StaticMax replicates everything everywhere up front and never
	// adapts (extension; the maximum-concurrency bound).
	StaticMax Algorithm = "static-max"
	// PeriodStretch degrades under overload by elastically stretching the
	// effective period within configured bounds (Dwivedi,
	// arXiv:1212.3502) before spending replicas.
	PeriodStretch Algorithm = "period-stretch"
	// ImpreciseShed degrades under overload by shedding optional parts of
	// each period's items, mandatory parts untouched (El-Haweet et al.,
	// arXiv:1306.0448).
	ImpreciseShed Algorithm = "imprecise-shed"
)

// ValidAlgorithm reports whether a names a registered allocation policy.
func ValidAlgorithm(a Algorithm) bool {
	return policy.Registered(string(a))
}

// Algorithms returns every registered policy name in registration order.
func Algorithms() []Algorithm {
	names := policy.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// AlgorithmNames returns the registered policy names joined for flag
// help and error messages.
func AlgorithmNames() string {
	var b strings.Builder
	for i, n := range policy.Names() {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(n)
	}
	return b.String()
}

// Config holds the system parameters; DefaultConfig reproduces Table 1.
type Config struct {
	// NumNodes is the processor count (Table 1: 6).
	NumNodes int
	// Slice is the round-robin quantum (Table 1: 1 ms).
	Slice sim.Time
	// Discipline selects the CPU scheduling policy; Table 1 fixes
	// round-robin, FIFO and processor sharing are ablation alternatives.
	Discipline cpu.Discipline
	// Network configures the shared segment (Table 1: 100 Mbit/s).
	Network network.Config
	// Monitor holds the slack thresholds (paper: sl = 0.2·dl).
	Monitor monitor.Config
	// UtilThreshold is the non-predictive algorithm's UT (Table 1: 20 %).
	UtilThreshold float64
	// WarmupDemand is the one-time CPU cost charged to a freshly spawned
	// replica on its first period (process start-up).
	WarmupDemand sim.Time
	// OverlapFraction is the halo of the data stream each replica
	// receives beyond its share when a stage is partitioned, keeping the
	// continuous track objects temporally consistent across the split
	// (§3 item 7). It is what makes over-replication cost network
	// bandwidth.
	OverlapFraction float64
	// Seed drives all randomness in the run.
	Seed uint64

	// Lanes ≥ 2 partitions the system into that many equal network
	// segments ("lanes"): lane l owns nodes [l·NumNodes/Lanes,
	// (l+1)·NumNodes/Lanes) with a segment of its own, tasks are confined
	// to one lane each (nil Homes sends task i to lane i mod Lanes), and
	// the lanes exchange per-segment workload reports over a fixed-latency
	// uplink so eq. (5)'s Σ-items input stays global. Requires
	// NumNodes % Lanes == 0. Lanes ≤ 1 — the default — keeps the
	// single-segment system on the exact single-threaded code path.
	Lanes int
	// Parallel is the worker-goroutine count driving a Lanes ≥ 2 run:
	// 0 picks one worker per available CPU (capped at Lanes), 1 runs the
	// lanes serially on one goroutine. Results are byte-identical for
	// every value — Parallel trades wall-clock only — so it is excluded
	// from the run fingerprint. No effect when Lanes ≤ 1.
	Parallel int

	// Faults injects node crashes: survivability through replication is
	// the motivation the paper opens with, and fail-over exercises the
	// same allocation machinery as workload adaptation.
	Faults []Fault

	// Chaos, when enabled, compiles stochastic per-node crash/repair
	// processes and transient segment partitions (internal/chaos) into
	// the fault schedule at run start, deterministically from Seed. The
	// zero value is fully off and changes nothing.
	Chaos chaos.Config

	// Degradation hardens the adaptation loop against chaos. The zero
	// value disables every mechanism so clean runs are byte-identical to
	// a build without it; HardenedDegradation returns sane defaults.
	Degradation Degradation

	// Policy carries the knobs of the registered allocation policies
	// (period-stretch bounds, imprecise-shed fractions). The zero value
	// means the policy package's defaults; algorithms that ignore a knob
	// are unaffected by it, but every field still feeds the run
	// fingerprint.
	Policy policy.Config
}

// Fault is one injected node crash. Duration 0 means the node never
// recovers.
type Fault struct {
	Node     int
	At       sim.Time
	Duration sim.Time
}

// Degradation configures the hardening mechanisms that keep the
// adaptation loop honest when nodes flap and messages vanish. Every
// field gates its mechanism independently; all-zero means all-off.
type Degradation struct {
	// DeliveryTimeout arms a watchdog on every inter-subtask message:
	// if a stage handoff is not delivered within the timeout it is
	// retransmitted. Backoff doubles per attempt. 0 disables detection —
	// a dropped message then loses the period.
	DeliveryTimeout sim.Time
	// MaxRetries bounds retransmissions per message (attempts beyond the
	// original send). After the budget the handoff is abandoned.
	MaxRetries int
	// StalenessWindow discards slack readings older than this when the
	// monitor analyzes a period, and taints readings from periods that
	// straddled a crash or recovery. 0 keeps every reading forever.
	StalenessWindow sim.Time
	// CooldownPeriods suppresses shutdowns for this many periods after a
	// node goes down or comes back, so a flapping node does not thrash
	// replicas off stages that are about to need them. Replication stays
	// responsive — the hysteresis is one-sided. 0 disables.
	CooldownPeriods int
	// FallbackUtil substitutes for a node's measured utilization while
	// its measurement window overlaps a crash (a down node's idle meter
	// would otherwise read 0 and attract every new replica). 0 disables.
	FallbackUtil float64
}

// HardenedDegradation returns the defaults used by the ext-chaos
// experiment: 100 ms delivery timeout with 3 retries, a 3 s staleness
// window, 2 periods of shutdown cooldown, and 0.5 fallback utilization.
func HardenedDegradation() Degradation {
	return Degradation{
		DeliveryTimeout: 100 * sim.Millisecond,
		MaxRetries:      3,
		StalenessWindow: 3 * sim.Second,
		CooldownPeriods: 2,
		FallbackUtil:    0.5,
	}
}

func (d Degradation) validate() error {
	var errs []error
	if d.DeliveryTimeout < 0 || d.StalenessWindow < 0 {
		errs = append(errs, fmt.Errorf("core: negative degradation timeout/window"))
	}
	if d.MaxRetries < 0 || d.CooldownPeriods < 0 {
		errs = append(errs, fmt.Errorf("core: negative degradation retry/cooldown count"))
	}
	if d.FallbackUtil < 0 || d.FallbackUtil > 1 {
		errs = append(errs, fmt.Errorf("core: fallback utilization %v out of [0,1]", d.FallbackUtil))
	}
	return errors.Join(errs...)
}

// DefaultConfig returns the Table 1 baseline.
func DefaultConfig() Config {
	return Config{
		NumNodes:        6,
		Slice:           sim.Millisecond,
		Network:         network.DefaultConfig(),
		Monitor:         monitor.DefaultConfig(),
		UtilThreshold:   0.2,
		WarmupDemand:    25 * sim.Millisecond,
		OverlapFraction: 0.10,
		Seed:            1,
	}
}

// Validate reports configuration errors. Every invalid field is
// collected into one joined error (one line per problem) instead of
// stopping at the first, so CLI and API callers can surface the whole
// diagnosis at once.
func (c Config) Validate() error {
	var errs []error
	if c.NumNodes < 1 {
		errs = append(errs, fmt.Errorf("core: need ≥1 node, got %d", c.NumNodes))
	}
	if c.Slice <= 0 {
		errs = append(errs, fmt.Errorf("core: non-positive slice %v", c.Slice))
	}
	if c.UtilThreshold <= 0 || c.UtilThreshold > 1 {
		errs = append(errs, fmt.Errorf("core: utilization threshold %v out of (0,1]", c.UtilThreshold))
	}
	if c.WarmupDemand < 0 {
		errs = append(errs, fmt.Errorf("core: negative warm-up demand %v", c.WarmupDemand))
	}
	if c.OverlapFraction < 0 || c.OverlapFraction >= 1 {
		errs = append(errs, fmt.Errorf("core: overlap fraction %v out of [0,1)", c.OverlapFraction))
	}
	if c.Lanes < 0 {
		errs = append(errs, fmt.Errorf("core: negative lane count %d", c.Lanes))
	}
	if c.Parallel < 0 {
		errs = append(errs, fmt.Errorf("core: negative parallel worker count %d", c.Parallel))
	}
	if c.Lanes >= 2 && c.NumNodes%c.Lanes != 0 {
		errs = append(errs, fmt.Errorf("core: %d lanes must evenly partition %d nodes", c.Lanes, c.NumNodes))
	}
	for i, f := range c.Faults {
		if f.Node < 0 || f.Node >= c.NumNodes {
			errs = append(errs, fmt.Errorf("core: fault %d targets node %d outside [0,%d)", i, f.Node, c.NumNodes))
		}
		if f.At < 0 || f.Duration < 0 {
			errs = append(errs, fmt.Errorf("core: fault %d with negative time", i))
		}
	}
	if err := c.Chaos.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.Degradation.validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.Policy.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// TaskSetup binds one periodic task to its workload pattern and fitted
// regression models (the models serve both the predictive allocator and
// EQF deadline estimation, which both algorithms share per §4.1).
type TaskSetup struct {
	Spec    task.Spec
	Pattern workload.Pattern
	// Homes optionally places subtask i's original process; when nil,
	// subtask i goes to node i mod NumNodes.
	Homes []int
	// Exec holds one fitted eq. (3) model per subtask.
	Exec []regress.ExecModel
	// Comm is the fitted eq. (4)–(6) model.
	Comm regress.CommModel
}

func (ts TaskSetup) validate(numNodes int) error {
	if err := ts.Spec.Validate(); err != nil {
		return err
	}
	if ts.Pattern == nil {
		return fmt.Errorf("core: task %s without a workload pattern", ts.Spec.Name)
	}
	if len(ts.Exec) != len(ts.Spec.Subtasks) {
		return fmt.Errorf("core: task %s has %d exec models for %d subtasks",
			ts.Spec.Name, len(ts.Exec), len(ts.Spec.Subtasks))
	}
	if err := ts.Comm.Validate(); err != nil {
		return err
	}
	if ts.Homes != nil {
		if len(ts.Homes) != len(ts.Spec.Subtasks) {
			return fmt.Errorf("core: task %s has %d homes for %d subtasks",
				ts.Spec.Name, len(ts.Homes), len(ts.Spec.Subtasks))
		}
		for _, h := range ts.Homes {
			if h < 0 || h >= numNodes {
				return fmt.Errorf("core: task %s home %d outside [0,%d)", ts.Spec.Name, h, numNodes)
			}
		}
	}
	return nil
}
