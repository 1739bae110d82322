package experiment

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// statsDelta runs f and returns how much each scheduler counter moved.
func statsDelta(f func()) SchedulerCounters {
	before := SchedulerStats()
	f()
	after := SchedulerStats()
	return SchedulerCounters{
		Requested:  after.Requested - before.Requested,
		Deduped:    after.Deduped - before.Deduped,
		MemoryHits: after.MemoryHits - before.MemoryHits,
		DiskHits:   after.DiskHits - before.DiskHits,
		Simulated:  after.Simulated - before.Simulated,
		Cancelled:  after.Cancelled - before.Cancelled,
		Remote:     after.Remote - before.Remote,
	}
}

// TestSchedulerSharesRunsAcrossExperiments drives three experiments with
// Monte Carlo replication concurrently through the shared scheduler (run
// under -race by the Makefile's race target). fig9 and fig10 consume the
// same triangular sweep and fig13 the two ramps, so with quick points
// (5), two algorithms and three replications the batch requests exactly
// 3 sweeps × 30 runs. Dedup reaches across sweeps: at workload 0 all
// three factories degenerate to the same constant pattern, so those 12
// cells (2 ramp sweeps × 2 algorithms × 3 seeds) are fingerprint-equal
// to the triangular sweep's and simulate only once.
func TestSchedulerSharesRunsAcrossExperiments(t *testing.T) {
	ResetSweepCache()
	ctx := Context{Quick: true, Parallelism: 4, Seeds: 3}
	d := statsDelta(func() {
		var wg sync.WaitGroup
		for _, id := range []string{"fig9", "fig10", "fig13"} {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, err := ByID(id)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Run(ctx); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			}()
		}
		wg.Wait()
	})
	if want := uint64(90); d.Requested != want {
		t.Errorf("requested %d runs, want %d (3 sweeps × 5 points × 2 algorithms × 3 seeds)",
			d.Requested, want)
	}
	if want := uint64(78); d.Simulated != want {
		t.Errorf("simulated %d runs, want %d (90 requested − 12 shared workload-0 cells)",
			d.Simulated, want)
	}
	if shared := d.Deduped + d.MemoryHits; shared != 12 {
		t.Errorf("shared %d runs (%d in flight + %d memoized), want 12", shared, d.Deduped, d.MemoryHits)
	}
	if d.Requested != d.Simulated+d.Deduped+d.MemoryHits+d.DiskHits {
		t.Errorf("counters do not balance: %+v", d)
	}
}

// TestSchedulerDedupsOverlappingSweeps submits two sweeps whose point
// sets overlap; the shared cells must be served from the run memo, not
// re-simulated.
func TestSchedulerDedupsOverlappingSweeps(t *testing.T) {
	ResetSweepCache()
	first := statsDelta(func() {
		if _, err := SweepSeeds([]int{0, 4, 8}, TriangularFactory, 2, 2); err != nil {
			t.Fatal(err)
		}
	})
	if first.Requested != 12 || first.Simulated != 12 {
		t.Fatalf("cold sweep: %+v, want 12 requested / 12 simulated", first)
	}
	second := statsDelta(func() {
		if _, err := SweepSeeds([]int{4, 8, 12}, TriangularFactory, 2, 2); err != nil {
			t.Fatal(err)
		}
	})
	if second.Requested != 12 {
		t.Errorf("warm sweep requested %d, want 12", second.Requested)
	}
	if second.MemoryHits != 8 {
		t.Errorf("warm sweep memory hits = %d, want 8 (points 4 and 8 shared)", second.MemoryHits)
	}
	if second.Simulated != 4 {
		t.Errorf("warm sweep simulated %d, want 4 (point 12 only)", second.Simulated)
	}
}

// TestScheduledRunRejectsTelemetry pins the scheduler's one exclusion: a
// run carrying a live recorder cannot be deduplicated or cache-served.
func TestScheduledRunRejectsTelemetry(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Telemetry = telemetry.New(telemetry.DefaultConfig())
	if _, err := ScheduledRun(cfg, core.Predictive, []core.TaskSetup{setup}); err == nil {
		t.Error("telemetry-carrying run accepted by the scheduler")
	}
}

// TestFinishedEntryKeepsOnlyOutcome: the run memo lives as long as the
// process, so a finished entry must drop its config, task setups and
// run context, and still serve the identical outcome from the memo.
func TestFinishedEntryKeepsOnlyOutcome(t *testing.T) {
	resetRunMemo()
	setup, err := BenchmarkSetup(TriangularFactory(6 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 770001
	setups := []core.TaskSetup{setup}
	var first, second RunOutcome
	var e *runEntry
	d := statsDelta(func() {
		e = sched.submit(cfg, core.Predictive, setups)
		if first, err = e.wait(); err != nil {
			t.Fatal(err)
		}
		if second, err = ScheduledRun(cfg, core.Predictive, setups); err != nil {
			t.Fatal(err)
		}
	})
	sched.mu.Lock()
	kept := e.setups != nil || !reflect.DeepEqual(e.cfg, core.Config{}) || e.runCtx != nil || e.cancelRun != nil
	sched.mu.Unlock()
	if kept {
		t.Error("finished entry still holds its config, setups or run context")
	}
	if d.Requested != 2 || d.Simulated != 1 || d.MemoryHits != 1 {
		t.Errorf("counters %+v, want 2 requested / 1 simulated / 1 memory hit", d)
	}
	if !reflect.DeepEqual(first, second) || first.EventsFired == 0 {
		t.Errorf("memoized outcome %+v differs from the simulated %+v", second, first)
	}
}

// TestRunSeedPinsHistoricalValues guards the golden-CSV compatibility
// contract of the seed-derivation fix.
func TestRunSeedPinsHistoricalValues(t *testing.T) {
	for _, tc := range []struct {
		units int
		alg   core.Algorithm
		want  uint64
	}{
		{0, core.Predictive, 0x9e3779b9*1 + 10},
		{0, core.NonPredictive, 0x9e3779b9*1 + 14},
		{20, core.Predictive, 0x9e3779b9*21 + 10},
	} {
		if got := runSeed(tc.units, tc.alg, 0); got != tc.want {
			t.Errorf("runSeed(%d, %s, 0) = %d, want %d", tc.units, tc.alg, got, tc.want)
		}
	}
	// Non-headline algorithms and later replications must never collide
	// across the cells a sweep can produce.
	seen := map[uint64]string{}
	for units := 0; units <= 35; units++ {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive, core.Greedy, core.StaticMax} {
			for rep := 0; rep < 10; rep++ {
				s := runSeed(units, alg, rep)
				id := string(alg)
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed collision: %d shared by %s and %s/%d/%d", s, prev, id, units, rep)
				}
				seen[s] = id
			}
		}
	}
}
