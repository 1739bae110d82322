package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// budgetRun is one canonical workload of the performance budget.
type budgetRun struct {
	name   string
	cfg    core.Config
	alg    core.Algorithm
	setups []core.TaskSetup
}

// budgetRuns returns the budget's workloads: rmsim's default run (the
// 120-period triangular pattern), one fig9 sweep cell, and one run of
// perfbench's big-topology shape (64 nodes in 8 lanes on the serial lane
// driver, 48 tasks in two period classes).
func budgetRuns(t *testing.T) []budgetRun {
	t.Helper()
	setup := func(p workload.Pattern) core.TaskSetup {
		s, err := BenchmarkSetup(p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tri := core.DefaultConfig()
	tri.Seed = 1
	cell := core.DefaultConfig()
	cell.Seed = runSeed(20, core.Predictive, 0)

	big := core.DefaultConfig()
	big.NumNodes, big.Lanes, big.Parallel = 64, 8, 1
	bigSetups := make([]core.TaskSetup, 48)
	for i := range bigSetups {
		periods := 16
		if i >= 24 {
			periods = 32
		}
		var p workload.Pattern
		switch i % 3 {
		case 0:
			p = workload.NewStep(500, 6000, periods, periods/2)
		case 1:
			p = workload.NewTriangular(500, 5000, periods, 4)
		default:
			p = workload.NewConstant(2500, periods)
		}
		s := setup(p)
		s.Spec.Name = fmt.Sprintf("BT%02d", i)
		if i >= 24 {
			s.Spec.Period /= 2
			s.Spec.Deadline /= 2
		}
		bigSetups[i] = s
	}
	return []budgetRun{
		{"triangular-120", tri, core.Predictive, []core.TaskSetup{setup(workload.NewTriangular(500, 12000, 120, 2))}},
		{"fig9-cell-20", cell, core.Predictive, []core.TaskSetup{setup(TriangularFactory(20 * WorkloadUnit))}},
		{"big-topology", big, core.Predictive, bigSetups},
	}
}

// raceBuild is set in -race builds (race_test.go).
var raceBuild bool

// budget is the committed performance budget: per workload, the exact
// engine events and heap allocations of one unobserved run, and its
// allocated bytes in a plain and in a -race build, as measured with the
// Go release it names.
type budget struct {
	Go   string                 `json:"go"`
	Runs map[string]budgetCount `json:"runs"`
}

type budgetCount struct {
	Events uint64 `json:"events"`
	Allocs int64  `json:"allocs"`
	Bytes  int64  `json:"bytes"`
	// RaceBytes is Bytes in a -race build.
	RaceBytes int64 `json:"race_bytes"`
}

// TestPerformanceBudget holds the host-independent half of the
// performance contract: events fired and allocations per run must equal
// testdata/budget.json exactly, and bytes per run must be within 1% (the
// runtime's own bookkeeping moves them by a few bytes). A change that
// moves them updates the file, so the move shows in review with its
// number; on a mismatch the test prints the measured file.
func TestPerformanceBudget(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want budget
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Go != runtime.Version() {
		t.Skipf("budget recorded with %s, running %s: re-record it for this toolchain", want.Go, runtime.Version())
	}
	got := budget{Go: runtime.Version(), Runs: map[string]budgetCount{}}
	runs := budgetRuns(t)
	events := make([]uint64, len(runs))
	for i, r := range runs { // warm every per-process cache before measuring
		res, err := core.Run(r.cfg, r.alg, r.setups)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = res.EventsFired
	}
	for i, r := range runs {
		// AllocsPerRun makes n+1 calls and floors the mean over n of
		// them, so fewer than n stray allocations of the process (the
		// runtime's own, now and then) do not show.
		const n = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(n, func() {
			if _, err := core.Run(r.cfg, r.alg, r.setups); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		g := budgetCount{Events: events[i], Allocs: int64(allocs)}
		w, ok := want.Runs[r.name]
		bytes, wantBytes := &g.Bytes, w.Bytes
		if raceBuild {
			bytes, wantBytes = &g.RaceBytes, w.RaceBytes
		}
		*bytes = int64(after.TotalAlloc-before.TotalAlloc) / (n + 1)
		got.Runs[r.name] = g
		if diff := float64(*bytes - wantBytes); !ok || g.Events != w.Events || g.Allocs != w.Allocs ||
			diff > 0.01*float64(wantBytes) || -diff > 0.01*float64(wantBytes) {
			t.Errorf("%s: events %d, allocs %d, bytes %d; budget %+v", r.name, g.Events, g.Allocs, *bytes, w)
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("measured budget:\n%s", out)
	}
}
