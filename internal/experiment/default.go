package experiment

import (
	"context"

	"repro/internal/core"
)

// defaultScheduler serves a Context without a Scheduler and the wrappers
// below, which keep perfbench (a separate module still on the old
// package-level API) working. Code in this module uses NewScheduler.
var defaultScheduler = NewScheduler(0)

// ResetSweepCache drops the default scheduler's sweep and run memos.
func ResetSweepCache() {
	s := defaultScheduler
	s.mu.Lock()
	clear(s.sweeps)
	clear(s.entries)
	s.mu.Unlock()
}

// SetDiskCache installs c on the default scheduler.
func SetDiskCache(c *DiskCache) { defaultScheduler.SetDiskCache(c) }

// SetWallObserver installs o on the default scheduler.
func SetWallObserver(o WallObserver) { defaultScheduler.SetWallObserver(o) }

// SetRemoteRunner installs fn on the default scheduler.
func SetRemoteRunner(fn RemoteRunner) { defaultScheduler.SetRemoteRunner(fn) }

// SchedulerStats snapshots the default scheduler's counters.
func SchedulerStats() SchedulerCounters { return defaultScheduler.Stats() }

// ScheduledRun runs one simulation on the default scheduler.
func ScheduledRun(cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) (RunOutcome, error) {
	return defaultScheduler.Run(context.Background(), cfg, alg, setups)
}
