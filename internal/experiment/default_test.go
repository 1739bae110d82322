package experiment

import (
	"context"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// TestDefaultSchedulerWrappers covers the package-level wrappers over
// the default scheduler, and a Context without a Scheduler: it resolves
// to the default and sets its width from Parallelism.
func TestDefaultSchedulerWrappers(t *testing.T) {
	t.Cleanup(func() {
		SetDiskCache(nil)
		SetWallObserver(nil)
		SetRemoteRunner(nil)
		ResetSweepCache()
		defaultScheduler.setWidth(0)
	})
	if s := (Context{Parallelism: 3}).scheduler(); s != defaultScheduler || s.width != 3 {
		t.Fatalf("nil-Scheduler Context resolved to width %d, want the default scheduler at 3", s.width)
	}

	cache, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetDiskCache(cache)
	rec := newRecordObserver()
	SetWallObserver(rec)
	cfg, setups := observerRunSetup(t, 3)
	before := SchedulerStats()
	cold, err := ScheduledRun(cfg, core.Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}
	ResetSweepCache() // drop the memo; the disk serves the rerun
	warm, err := ScheduledRun(cfg, core.Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Errorf("disk-served outcome %+v differs from the simulated %+v", warm, cold)
	}
	after := SchedulerStats()
	if after.Simulated-before.Simulated != 1 || after.DiskHits-before.DiskHits != 1 {
		t.Errorf("counters moved %+v → %+v, want 1 simulated and 1 disk hit", before, after)
	}
	if queued, _, _, _ := rec.snapshot(); queued != 2 {
		t.Errorf("wall observer saw %d cells queued, want 2", queued)
	}

	sentinel := RunOutcome{EventsFired: 515151}
	SetRemoteRunner(func(context.Context, api.RunRequest) (RunOutcome, error) { return sentinel, nil })
	cfg.Seed++
	if out, err := ScheduledRun(cfg, core.Predictive, setups); err != nil || out != sentinel {
		t.Errorf("remote run returned %+v, %v; want the sentinel", out, err)
	}
}
