package experiment

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSchedulerSharesRunsAcrossExperiments drives three experiments with
// Monte Carlo replication concurrently through one scheduler (run
// under -race by the Makefile's race target). fig9 and fig10 consume the
// same triangular sweep and fig13 the two ramps, so with quick points
// (5), two algorithms and three replications the batch requests exactly
// 3 sweeps × 30 runs. Dedup reaches across sweeps: at workload 0 all
// three factories degenerate to the same constant pattern, so those 12
// cells (2 ramp sweeps × 2 algorithms × 3 seeds) are fingerprint-equal
// to the triangular sweep's and simulate only once.
func TestSchedulerSharesRunsAcrossExperiments(t *testing.T) {
	ctx := Context{Quick: true, Scheduler: NewScheduler(4), Seeds: 3}
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
	d := ctx.Scheduler.Stats()
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
	s := NewScheduler(2)
	if _, err := s.Sweep(context.Background(), []int{0, 4, 8}, TriangularFactory, 2); err != nil {
		t.Fatal(err)
	}
	if first := s.Stats(); first.Requested != 12 || first.Simulated != 12 {
		t.Fatalf("cold sweep: %+v, want 12 requested / 12 simulated", first)
	}
	if _, err := s.Sweep(context.Background(), []int{4, 8, 12}, TriangularFactory, 2); err != nil {
		t.Fatal(err)
	}
	both := s.Stats()
	if both.Requested != 24 {
		t.Errorf("both sweeps requested %d, want 24", both.Requested)
	}
	if both.MemoryHits != 8 {
		t.Errorf("warm sweep memory hits = %d, want 8 (points 4 and 8 shared)", both.MemoryHits)
	}
	if both.Simulated != 16 {
		t.Errorf("both sweeps simulated %d, want 16 (the warm one point 12 only)", both.Simulated)
	}
}

// TestFinishedEntryKeepsOnlyOutcome: the run memo lives as long as the
// process, so a finished entry must drop its config, task setups and
// run context, and still serve the identical outcome from the memo.
func TestFinishedEntryKeepsOnlyOutcome(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(6 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 770001
	setups := []core.TaskSetup{setup}
	sched := NewScheduler(1)
	e := sched.submit(cfg, core.Predictive, setups)
	first, err := e.wait()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sched.Run(context.Background(), cfg, core.Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}
	d := sched.Stats()
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

// concurrencyObserver is a WallObserver that tracks how many cells are
// running at once, and the most it ever saw.
type concurrencyObserver struct {
	mu            sync.Mutex
	running, peak int
	cells         int
}

func (o *concurrencyObserver) CellQueued() {}
func (o *concurrencyObserver) CellStarted(time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.running++
	o.cells++
	o.peak = max(o.peak, o.running)
}
func (o *concurrencyObserver) CellFinished(string, time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.running--
}
func (o *concurrencyObserver) DiskHit(time.Duration) {}

// TestSerialSchedulerRunsOneCellAtATime: the experiments that submit
// cells themselves rather than through a sweep run on the Context's
// scheduler, so a width-1 scheduler — -check-determinism's serial pass
// — never runs two of their cells at once.
func TestSerialSchedulerRunsOneCellAtATime(t *testing.T) {
	for _, id := range []string{"ext-chaos", "ext-tournament"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			obs := &concurrencyObserver{}
			sched := NewScheduler(1)
			sched.SetWallObserver(obs)
			if _, err := e.Run(Context{Quick: true, Scheduler: sched}); err != nil {
				t.Fatal(err)
			}
			if obs.cells == 0 || obs.peak != 1 {
				t.Errorf("%d cells ran at most %d at once on a width-1 scheduler, want 1", obs.cells, obs.peak)
			}
		})
	}
}
