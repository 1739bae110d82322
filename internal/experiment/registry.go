package experiment

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Context carries run options for all experiments.
type Context struct {
	// Scheduler runs every simulation the experiment schedules. Nil means
	// the package's default scheduler, with its width set from
	// Parallelism.
	Scheduler *Scheduler
	// Parallelism is the default scheduler's width when Scheduler is nil
	// (≤0 means NumCPU); a Context with its own Scheduler ignores it.
	Parallelism int
	// Quick trims sweeps for fast runs (tests, CI smoke).
	Quick bool
	// Seeds is the Monte Carlo replication count per sweep cell; values
	// < 2 mean the single pinned replication-0 seed (the historical
	// single-run mode). With Seeds ≥ 2 the sweep figures render each
	// quantity as mean ± 95% CI over the replications.
	Seeds int
	// Policies restricts registry-sweeping experiments (ext-tournament)
	// to a subset of registered allocation policies. Nil or empty means
	// every registered policy. Experiments that pin their own algorithm
	// set (the paper's tables and figures) ignore it.
	Policies []string
}

// scheduler resolves the Scheduler the experiment submits to.
func (c Context) scheduler() *Scheduler {
	if c.Scheduler != nil {
		return c.Scheduler
	}
	defaultScheduler.setWidth(c.Parallelism)
	return defaultScheduler
}

// run executes one simulation on the Context's scheduler.
func (c Context) run(cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) (RunOutcome, error) {
	return c.scheduler().Run(context.Background(), cfg, alg, setups)
}

// seeds normalizes the replication count.
func (c Context) seeds() int {
	if c.Seeds < 1 {
		return 1
	}
	return c.Seeds
}

// sweepPoints returns the x-axis of the paper's figures: max workload
// 0–35 in units of 500 tracks.
func (c Context) sweepPoints() []int {
	if c.Quick {
		return []int{0, 8, 16, 24, 32}
	}
	points := make([]int, 36)
	for i := range points {
		points[i] = i
	}
	return points
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it regenerates
	Title string
	Run   func(Context) (Output, error)
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q (run `rmexperiments -list`)", id)
}
