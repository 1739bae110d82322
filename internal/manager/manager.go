// Package manager implements step 2 of the adaptive resource-management
// process (paper §4.2): determining how many replicas a candidate subtask
// needs and which processors execute them.
//
// Two allocators are provided, sharing the Allocator interface:
//
//   - Predictive (Figure 5, the paper's contribution) incrementally adds
//     replicas on the least-utilized processors, forecasting each
//     replica's execution latency with the fitted eq. (3) model and its
//     message delay with the eq. (4)–(6) model, until every replica's
//     forecast total delay fits within the subtask deadline minus the
//     required slack.
//   - NonPredictive (Figure 7, the baseline) replicates the candidate
//     onto every processor whose observed utilization is below a fixed
//     threshold (Table 1: 20 %).
//
// Both use ShutDownAReplica (Figure 6) to release the most recently added
// replica of a very-high-slack subtask; Predictive additionally guards
// shutdown with a forecast so it never releases a replica the current
// workload still needs (this is the "predictive" discipline of §4.2.1
// applied to de-allocation, and is what keeps it from thrashing — see
// DESIGN.md §5).
package manager

import (
	"fmt"

	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/task"
)

// ProcView exposes the processor state the allocators read: the cluster
// size and the observed utilization ut(p, t) over the last monitoring
// window.
type ProcView interface {
	NumProcessors() int
	Utilization(proc int) float64
}

// LivenessView is an optional extension of ProcView: views that also know
// which processors are down implement it, and allocators never place
// replicas on dead nodes.
type LivenessView interface {
	Alive(proc int) bool
}

// alive reports liveness through the optional interface, defaulting to
// true.
func alive(v ProcView, proc int) bool {
	if lv, ok := v.(LivenessView); ok {
		return lv.Alive(proc)
	}
	return true
}

// Environment carries the per-invocation context of Figures 5 and 7.
type Environment struct {
	// Procs is the background (other-work) utilization view — the u the
	// fitted eq. (3) was profiled against, consumed by the predictive
	// forecasts.
	Procs ProcView
	// RawProcs is the total node utilization view — what Figure 7's
	// threshold test and the least-utilized placement pick read. When
	// nil, Procs is used for both.
	RawProcs ProcView
	// Items is ds(Ti, c): the task's data size for the current period.
	Items int
	// TotalItems is Σᵢ ds(Tᵢ, c) across all tasks — eq. (5)'s input.
	TotalItems int
	// SubtaskDeadline is dl(st) for the candidate subtask.
	SubtaskDeadline sim.Time
	// SlackFraction sets sl = SlackFraction·dl(st); the paper uses 0.2.
	SlackFraction float64
}

func (e Environment) validate() error {
	if e.Procs == nil {
		return fmt.Errorf("manager: environment without processor view")
	}
	if e.Items < 0 || e.TotalItems < e.Items {
		return fmt.Errorf("manager: inconsistent workload items=%d total=%d", e.Items, e.TotalItems)
	}
	if e.SubtaskDeadline <= 0 {
		return fmt.Errorf("manager: non-positive subtask deadline %v", e.SubtaskDeadline)
	}
	if e.SlackFraction < 0 || e.SlackFraction >= 1 {
		return fmt.Errorf("manager: slack fraction %v out of [0,1)", e.SlackFraction)
	}
	return nil
}

// slackDeadline returns dl(st) − sl.
func (e Environment) slackDeadline() sim.Time {
	return e.SubtaskDeadline - sim.Time(e.SlackFraction*float64(e.SubtaskDeadline))
}

// raw returns the total-utilization view, falling back to the background
// view when none was supplied.
func (e Environment) raw() ProcView {
	if e.RawProcs != nil {
		return e.RawProcs
	}
	return e.Procs
}

// Allocator decides replica counts and placements for candidate subtasks.
type Allocator interface {
	Name() string
	// Replicate adds replicas for the candidate stage, mutating the
	// deployment. It returns how many replicas were added and whether the
	// algorithm considers the subtask deadline satisfiable (Figure 5's
	// SUCCESS/FAILURE; the non-predictive algorithm reports success
	// whenever it changed anything).
	Replicate(d *task.Deployment, stage int, env Environment) (added int, ok bool)
	// ShouldShutdown reports whether releasing the last-added replica of
	// the stage is acceptable.
	ShouldShutdown(d *task.Deployment, stage int, env Environment) bool
}

// ShutDownAReplica implements Figure 6: release the most recently added
// replica, never the original process. It returns the released processor.
func ShutDownAReplica(d *task.Deployment, stage int) (proc int, ok bool) {
	return d.RemoveLastReplica(stage)
}

// Predictive is the Figure 5 allocator.
type Predictive struct {
	// Exec holds the fitted eq. (3) model per subtask stage.
	Exec []regress.ExecModel
	// Comm is the fitted eq. (4)–(6) model.
	Comm regress.CommModel
	// Probe, when non-nil, observes every single-replica forecast the
	// allocator evaluates (Figure 5 step 6 and the shutdown guard).
	// Core emits each evaluation on its observation stream, where the
	// telemetry recorder counts them per stage; it must not mutate
	// allocator state.
	Probe func(stage, share int, u float64, predicted sim.Time)
}

// NewPredictive validates the models and returns the allocator.
func NewPredictive(exec []regress.ExecModel, comm regress.CommModel) (*Predictive, error) {
	if len(exec) == 0 {
		return nil, fmt.Errorf("manager: predictive allocator needs exec models")
	}
	if err := comm.Validate(); err != nil {
		return nil, err
	}
	return &Predictive{Exec: exec, Comm: comm}, nil
}

// Name implements Allocator.
func (p *Predictive) Name() string { return "predictive" }

// forecast returns the predicted total delay (eex + ecd) for one replica
// of the stage processing `share` items on a processor at utilization u.
func (p *Predictive) forecast(stage, share int, u float64, totalItems int) sim.Time {
	eex := p.Exec[stage].Latency(share, u)
	ecd := p.Comm.Delay(float64(share), totalItems)
	return eex + ecd
}

// forecastOK reports whether every replica in PS(st) meets dl − sl under
// the current forecast (Figure 5 step 6).
func (p *Predictive) forecastOK(d *task.Deployment, stage int, env Environment, replicas []int) bool {
	share := (env.Items + len(replicas) - 1) / len(replicas)
	limit := env.slackDeadline()
	for _, q := range replicas {
		u := env.Procs.Utilization(q)
		pred := p.forecast(stage, share, u, env.TotalItems)
		if p.Probe != nil {
			p.Probe(stage, share, u, pred)
		}
		if pred > limit {
			return false
		}
	}
	return true
}

// Replicate implements Figure 5: pick the least-utilized processor not
// yet hosting the subtask, add a replica there, re-forecast every
// replica, and repeat until the forecast satisfies the deadline (SUCCESS)
// or processors run out (FAILURE).
func (p *Predictive) Replicate(d *task.Deployment, stage int, env Environment) (int, bool) {
	if err := env.validate(); err != nil {
		panic(err)
	}
	if stage < 0 || stage >= len(p.Exec) {
		panic(fmt.Sprintf("manager: stage %d outside exec models (%d)", stage, len(p.Exec)))
	}
	added := 0
	for {
		// Step 1–3: find the least utilized processor outside PS(st),
		// judged by total utilization.
		pick, found := leastUtilized(d, stage, env.raw())
		if !found {
			return added, false // FAILURE: PT = ∅
		}
		// Step 5: PS(st) := PS(st) ∪ {p}.
		if err := d.AddReplica(stage, pick); err != nil {
			// Non-replicable subtask: the monitor never flags these, so
			// reaching here is a wiring bug.
			panic(err)
		}
		added++
		// Step 6: forecast every replica with the reduced share.
		if p.forecastOK(d, stage, env, d.Replicas(stage)) {
			return added, true // SUCCESS
		}
	}
}

// ShouldShutdown forecasts the stage with one replica fewer; only if the
// remaining replicas still meet dl − sl is the release allowed.
func (p *Predictive) ShouldShutdown(d *task.Deployment, stage int, env Environment) bool {
	if err := env.validate(); err != nil {
		panic(err)
	}
	replicas := d.Replicas(stage)
	if len(replicas) <= 1 {
		return false
	}
	return p.forecastOK(d, stage, env, replicas[:len(replicas)-1])
}

// leastUtilized returns the lowest-utilization processor not hosting the
// stage; ties break toward the lower processor id for determinism.
func leastUtilized(d *task.Deployment, stage int, procs ProcView) (int, bool) {
	best, bestU := -1, 0.0
	for pr := 0; pr < procs.NumProcessors(); pr++ {
		if d.Has(stage, pr) || !alive(procs, pr) {
			continue
		}
		u := procs.Utilization(pr)
		if best == -1 || u < bestU {
			best, bestU = pr, u
		}
	}
	return best, best != -1
}

// NonPredictive is the Figure 7 baseline allocator.
type NonPredictive struct {
	// UtilThreshold is UT: processors below it are considered available
	// (Table 1: 20 %).
	UtilThreshold float64
}

// NewNonPredictive validates the threshold and returns the allocator.
func NewNonPredictive(threshold float64) (*NonPredictive, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("manager: utilization threshold %v out of (0,1]", threshold)
	}
	return &NonPredictive{UtilThreshold: threshold}, nil
}

// Name implements Allocator.
func (np *NonPredictive) Name() string { return "non-predictive" }

// Replicate implements Figure 7: add a replica on every processor whose
// utilization is below the threshold.
func (np *NonPredictive) Replicate(d *task.Deployment, stage int, env Environment) (int, bool) {
	if err := env.validate(); err != nil {
		panic(err)
	}
	added := 0
	raw := env.raw()
	for pr := 0; pr < raw.NumProcessors(); pr++ {
		if d.Has(stage, pr) || !alive(raw, pr) {
			continue
		}
		if raw.Utilization(pr) < np.UtilThreshold {
			if err := d.AddReplica(stage, pr); err != nil {
				panic(err)
			}
			added++
		}
	}
	return added, added > 0
}

// ShouldShutdown always consents — the heuristic trusts the monitor's
// very-high-slack signal unconditionally (Figure 6 as written).
func (np *NonPredictive) ShouldShutdown(d *task.Deployment, stage int, env Environment) bool {
	return d.ReplicaCount(stage) > 1
}

// MaskedProcView is a utilization snapshot with a liveness mask. The
// optional Unknown mask marks processors whose measurement is not
// trustworthy — a node whose sampling window overlapped a crash reads as
// idle when it is really just unobserved — and substitutes Fallback for
// their utilization so recovering nodes neither attract every new replica
// nor pass regression inputs the models were never fitted for.
type MaskedProcView struct {
	Utils    []float64
	Down     []bool
	Unknown  []bool
	Fallback float64
}

// NumProcessors implements ProcView.
func (m MaskedProcView) NumProcessors() int { return len(m.Utils) }

// Utilization implements ProcView.
func (m MaskedProcView) Utilization(proc int) float64 {
	if proc < 0 || proc >= len(m.Utils) {
		panic(fmt.Sprintf("manager: processor %d out of %d", proc, len(m.Utils)))
	}
	if m.Unknown != nil && m.Unknown[proc] {
		return m.Fallback
	}
	return m.Utils[proc]
}

// Alive implements LivenessView.
func (m MaskedProcView) Alive(proc int) bool {
	if m.Down == nil {
		return true
	}
	return !m.Down[proc]
}

// StaticProcView adapts a utilization snapshot to ProcView; the runner
// samples utilizations once per monitoring cycle and hands allocators
// this frozen view.
type StaticProcView []float64

// NumProcessors implements ProcView.
func (s StaticProcView) NumProcessors() int { return len(s) }

// Utilization implements ProcView.
func (s StaticProcView) Utilization(proc int) float64 {
	if proc < 0 || proc >= len(s) {
		panic(fmt.Sprintf("manager: processor %d out of %d", proc, len(s)))
	}
	return s[proc]
}
