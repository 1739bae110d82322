package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTournamentCellsNeverAlias is the regression test for the sweep
// cache leaking across the tournament's policy axis: two different
// policies given byte-identical configs and setups must fingerprint
// differently and cost two real simulations — if the scheduler served
// the second policy from the first's cache entry, every tournament
// column would silently show one algorithm's numbers.
func TestTournamentCellsNeverAlias(t *testing.T) {
	setupA, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	setupB, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 99

	for _, algs := range [][2]core.Algorithm{
		{core.Predictive, core.NonPredictive},
		{core.PeriodStretch, core.ImpreciseShed},
		{core.Predictive, core.PeriodStretch},
	} {
		fpA := Fingerprint(cfg, algs[0], []core.TaskSetup{setupA})
		fpB := Fingerprint(cfg, algs[1], []core.TaskSetup{setupB})
		if fpA == fpB {
			t.Errorf("%s and %s alias to fingerprint %s under an identical config", algs[0], algs[1], fpA)
		}
	}

	// And through the live scheduler: the pair must simulate twice, not
	// dedupe into one cache entry. The workload is pushed into overload
	// so the two controllers actually diverge — at a light load both
	// reduce to the predictive baseline and identical metrics would be
	// correct, not a cache bug.
	heavyA, err := BenchmarkSetup(TriangularFactory(16 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	heavyB, err := BenchmarkSetup(TriangularFactory(16 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(0)
	a := sched.submit(cfg, core.PeriodStretch, []core.TaskSetup{heavyA})
	b := sched.submit(cfg, core.ImpreciseShed, []core.TaskSetup{heavyB})
	outA, err := a.wait()
	if err != nil {
		t.Fatal(err)
	}
	outB, err := b.wait()
	if err != nil {
		t.Fatal(err)
	}
	if outA.Metrics == outB.Metrics {
		t.Error("period-stretch and imprecise-shed returned identical metrics — cache entry shared?")
	}
	d := sched.Stats()
	if d.Simulated != 2 {
		t.Errorf("two distinct policies simulated %d runs, want 2 (deduped %d, memory hits %d)",
			d.Simulated, d.Deduped, d.MemoryHits)
	}
}

// TestTournamentKnobsSplitCacheCells extends the aliasing guard to the
// policy knobs: the same policy with different stretch/shed settings
// must occupy distinct cache cells.
func TestTournamentKnobsSplitCacheCells(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig()
	tuned := base
	tuned.Policy.Stretch.MaxFactor = 3

	if Fingerprint(base, core.PeriodStretch, []core.TaskSetup{setup}) ==
		Fingerprint(tuned, core.PeriodStretch, []core.TaskSetup{setup}) {
		t.Error("stretch MaxFactor knob does not split the cache cell")
	}
}

// TestTournamentDeterministicOutput pins that two quick tournament runs
// render identically — the leaderboard ranking must be a pure function
// of the cell seeds, not of scheduler timing.
func TestTournamentDeterministicOutput(t *testing.T) {
	e, err := ByID("ext-tournament")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		out, err := e.Run(Context{Quick: true, Scheduler: NewScheduler(4), Seeds: 2})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, table := range out.Tables {
			if err := table.Render(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("tournament output differs across identical runs")
	}
}

// TestTournamentHonorsPolicySubset pins the -policies plumbing: a
// restricted Context must sweep only the named policies.
func TestTournamentHonorsPolicySubset(t *testing.T) {
	e, err := ByID("ext-tournament")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(Context{Quick: true, Scheduler: NewScheduler(4),
		Policies: []string{string(core.Predictive), string(core.PeriodStretch)}})
	if err != nil {
		t.Fatal(err)
	}
	grid, board := out.Tables[0], out.Tables[1]
	// Quick grid: 1 pattern × 2 intensities × 2 policies.
	if len(grid.Rows) != 4 {
		t.Errorf("subset grid has %d rows, want 4", len(grid.Rows))
	}
	if len(board.Rows) != 2 {
		t.Errorf("subset leaderboard has %d rows, want 2", len(board.Rows))
	}
	for _, row := range grid.Rows {
		if alg := row[2]; alg != string(core.Predictive) && alg != string(core.PeriodStretch) {
			t.Errorf("subset grid contains policy %q", alg)
		}
	}
}
