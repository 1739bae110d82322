package experiment

// Golden-run determinism harness.
//
// The hot-path optimizations in sim/cpu/network/core must not drift the
// paper's reproduced numbers. These tests pin two things:
//
//  1. Parallelism-independence: a Sweep run serially (parallelism=1) and
//     one fanned across workers produce byte-identical RunMetrics. Every
//     point is an independent, self-seeded simulation, so the worker
//     topology must be invisible in the results.
//  2. Snapshots: full-precision sweep metrics and the figure CSVs are
//     committed under testdata/. Any engine change that alters a single
//     completion time, event ordering, or rounding shows up as a byte
//     diff here — run with -update to regenerate on purpose.
//
// Regenerate after an intentional model change:
//
//	go test ./internal/experiment -run Golden -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenPoints is a trimmed x-axis that still exercises the interesting
// regimes: idle (0), adaptation onset, and heavy overload.
func goldenPoints() []int { return []int{0, 6, 12, 20} }

// goldenCSV serializes sweep results at full float precision — unlike the
// figure tables' %.3f cells, this catches drift below a thousandth.
func goldenCSV(results []PointResult) []byte {
	var b bytes.Buffer
	b.WriteString("max_units,alg,periods,completed,missed,mean_cpu_util,mean_net_util,mean_replicas,max_replicas,replications,shutdowns,alloc_failures,unfinished\n")
	for _, r := range results {
		m := r.Metrics
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%s,%s,%s,%s,%d,%d,%d,%d\n",
			r.MaxUnits, r.Alg,
			m.Periods, m.Completed, m.Missed,
			g(m.MeanCPUUtil), g(m.MeanNetUtil), g(m.MeanReplicas), g(m.MaxReplicas),
			m.Replications, m.Shutdowns, m.AllocFailures, m.UnfinishedWork)
	}
	return b.Bytes()
}

// g formats a float with the shortest representation that round-trips.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden run.\nThis means an optimization or refactor changed simulation "+
			"results. If the change is intentional, regenerate with -update.\n%s",
			name, firstDiff(want, got))
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			return fmt.Sprintf("first diff at line %d:\n  golden: %s\n  got:    %s", i+1, lw, lg)
		}
	}
	return "files differ in length only"
}

// TestGoldenSweepAcrossParallelism is the determinism core: the same seeds
// must yield identical metrics no matter how the runs are scheduled onto
// workers.
func TestGoldenSweepAcrossParallelism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory PatternFactory
	}{
		{"triangular", TriangularFactory},
		{"increasing", IncreasingFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh scheduler per width, so every Sweep below actually
			// simulates under its own scheduling instead of reading a memo.
			serial, err := NewScheduler(1).Sweep(context.Background(), goldenPoints(), tc.factory, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, parallelism := range []int{2, 7} {
				parallel, err := NewScheduler(parallelism).Sweep(context.Background(), goldenPoints(), tc.factory, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("parallelism=%d results differ from serial run:\n%s",
						parallelism, firstDiff(goldenCSV(serial), goldenCSV(parallel)))
				}
			}
		})
	}
}

// TestGoldenSweepSnapshot pins the serial sweep's metrics at full float
// precision.
func TestGoldenSweepSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory PatternFactory
	}{
		{"triangular", TriangularFactory},
		{"increasing", IncreasingFactory},
		{"decreasing", DecreasingFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, err := NewScheduler(1).Sweep(context.Background(), goldenPoints(), tc.factory, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "sweep_"+tc.name+".golden.csv", goldenCSV(results))
		})
	}
}

// TestGoldenSeedZeroUnchangedUnderReplication pins the seed-derivation
// contract of the Monte Carlo extension: replication 0 of every sweep
// cell keeps the exact historical seed, so a replicated sweep's rep-0
// metrics are byte-for-byte the committed single-run golden.
func TestGoldenSeedZeroUnchangedUnderReplication(t *testing.T) {
	results, err := NewScheduler(2).Sweep(context.Background(), goldenPoints(), TriangularFactory, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Reps) != 3 {
			t.Fatalf("point %d %s: %d replications, want 3", r.MaxUnits, r.Alg, len(r.Reps))
		}
		if !reflect.DeepEqual(r.Metrics, r.Reps[0]) {
			t.Fatalf("point %d %s: Metrics is not the replication-0 run", r.MaxUnits, r.Alg)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sweep_triangular.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenCSV(results); !bytes.Equal(got, want) {
		t.Errorf("replication-0 metrics drifted from the single-run golden.\n%s", firstDiff(want, got))
	}
}

// TestGoldenFigureCSV pins the rendered figure CSVs — the exact bytes the
// rmexperiments CLI writes with -out — for the sweep-driven figures.
// fig9/fig10 share one cached sweep, fig13 consumes the two ramp sweeps.
func TestGoldenFigureCSV(t *testing.T) {
	ctx := Context{Quick: true, Scheduler: NewScheduler(4)}
	for _, id := range []string{"fig9", "fig10", "fig13"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i, table := range out.Tables {
				var csv bytes.Buffer
				if err := table.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s.golden.csv", id)
				if len(out.Tables) > 1 {
					name = fmt.Sprintf("%s-%d.golden.csv", id, i+1)
				}
				checkGolden(t, name, csv.Bytes())
			}
		})
	}
}

// TestGoldenExtChaos pins the chaos sweep: stochastic crash schedules,
// message loss, and retransmission must all be pure functions of the cell
// seed, so the rendered table is as reproducible as the clean figures.
// Quick mode trims the grid to the low/medium intensities; two seeds
// exercise the CI columns.
func TestGoldenExtChaos(t *testing.T) {
	e, err := ByID("ext-chaos")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(Context{Quick: true, Scheduler: NewScheduler(4), Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := out.Tables[0].WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "extchaos.golden.csv", csv.Bytes())
}

// TestGoldenExtTournament pins the policy tournament: both the grid and
// the leaderboard must be pure functions of the FNV cell seeds, for
// every registered policy — including the controller-driven
// period-stretch and imprecise-shed paths. Quick mode trims to the
// triangular pattern and the low/medium intensities; two seeds exercise
// the CI columns. The grid and leaderboard are pinned separately so a
// ranking flip is distinguishable from a cell-level drift.
func TestGoldenExtTournament(t *testing.T) {
	e, err := ByID("ext-tournament")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(Context{Quick: true, Scheduler: NewScheduler(4), Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, table := range out.Tables {
		var csv bytes.Buffer
		if err := table.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("exttournament-%d.golden.csv", i+1), csv.Bytes())
	}
}
