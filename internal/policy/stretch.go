package policy

import (
	"repro/internal/manager"
)

// stretchPolicy is the elastic period-adaptation policy after Dwivedi
// (arXiv:1212.3502): under overload it degrades by stretching the task's
// effective period — launching fewer period instances per unit time —
// within a configured elastic bound, instead of immediately spending
// replicas. Only when the period is stretched to its bound does the
// monitor's replication signal reach the (predictive) allocator; on the
// way back down, the rate recovers before any replica is released.
type stretchPolicy struct{}

func (stretchPolicy) Name() string  { return "period-stretch" }
func (stretchPolicy) Paper() string { return "elastic period adaptation (Dwivedi, arXiv:1212.3502)" }

// NewAllocator pairs the stretch controller with the paper's predictive
// allocator: once the elastic budget is spent, replication decisions are
// forecast-driven exactly as in Figure 5.
func (stretchPolicy) NewAllocator(env TaskEnv) (manager.Allocator, error) {
	return manager.NewPredictive(env.Exec, env.Comm)
}

// NewController implements ControllerMaker.
func (stretchPolicy) NewController(env TaskEnv) Controller {
	return &stretchController{cfg: env.Knobs.Stretch.withDefaults(), factor: 1}
}

// stretchController holds the per-task elastic state. The effective
// period is factor × the nominal period, realized deterministically by a
// phase accumulator over the nominal period boundaries the engine fires:
// each boundary advances phase by 1/factor and a launch fires when the
// accumulator crosses 1, so over any window of n nominal periods the
// number of launches is within one of n/factor — no randomness, no
// engine rescheduling.
type stretchController struct {
	cfg    StretchConfig
	factor float64 // current stretch ∈ [1, cfg.MaxFactor]
	phase  float64 // launch-phase accumulator ∈ [0, 1)
}

// PlanPeriod implements Controller.
func (sc *stretchController) PlanPeriod(st PeriodState) Decision {
	d := Decision{LaunchItems: st.Items}
	switch {
	case st.Overloaded && sc.factor < sc.cfg.MaxFactor:
		// Degrade: move toward the analytic elastic target for the
		// observed utilization, at least one step, never past the bound.
		// The replication signal is consumed — stretching is the cheaper
		// lever while budget remains.
		next := sc.factor + sc.cfg.Step
		if want := StretchPlan([]float64{st.MeanRawUtil}, sc.cfg.UtilTarget, sc.cfg.MaxFactor)[0]; want > next {
			next = want
		}
		if next > sc.cfg.MaxFactor {
			next = sc.cfg.MaxFactor
		}
		sc.factor = next
		d.SuppressReplicate = true
	case !st.Overloaded && sc.factor > 1:
		// Recover: un-stretch one step per quiet period. While the rate
		// is still degraded, very-high-slack readings are an artifact of
		// the thinned load, so shutdowns stay suppressed until the
		// nominal period is restored.
		sc.factor -= sc.cfg.Step
		if sc.factor < 1 {
			sc.factor = 1
		}
		d.SuppressShutdown = true
	}
	sc.phase += 1 / sc.factor
	if sc.phase >= 1-1e-9 {
		sc.phase -= 1
		if sc.phase < 0 {
			sc.phase = 0
		}
		return d
	}
	d.Skip = true
	return d
}

// Factor exposes the current stretch for tests and diagnostics.
func (sc *stretchController) Factor() float64 { return sc.factor }

// StretchPlan is the analytic core of the elastic model: given the
// nominal utilizations Uᵢ of a task set, it returns per-task stretch
// factors sᵢ ∈ [1, maxFactor] such that the stretched total Σ Uᵢ/sᵢ is
// ≤ threshold whenever that is achievable within the bound (i.e. when
// Σ Uᵢ/maxFactor ≤ threshold). All tasks share one elasticity weight, so
// the plan is the uniform scale k = ΣUᵢ/threshold clamped into
// [1, maxFactor] — stretching no task when the set is already
// schedulable, and saturating every task at the bound when even full
// stretching cannot reach the threshold (the caller then falls back to
// replication).
func StretchPlan(utils []float64, threshold, maxFactor float64) []float64 {
	out := make([]float64, len(utils))
	if maxFactor < 1 {
		maxFactor = 1
	}
	var total float64
	for _, u := range utils {
		if u > 0 {
			total += u
		}
	}
	k := 1.0
	if threshold <= 0 {
		// Nothing is schedulable against a non-positive threshold; the
		// best the elastic model can do is stretch to the bound.
		k = maxFactor
	} else if total > threshold {
		k = total / threshold
		if k > maxFactor {
			k = maxFactor
		}
	}
	for i := range out {
		out[i] = k
	}
	return out
}
