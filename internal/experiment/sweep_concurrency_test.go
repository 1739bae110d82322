package experiment

import (
	"reflect"
	"sync"
	"testing"
)

// TestCachedSweepSingleFlight drives many concurrent same-key callers
// through CachedSweep and asserts the sweep executed exactly once (its
// four cells were requested once), with every caller receiving the
// identical result slice. Run under -race
// (the Makefile's race target covers this package) it also proves the
// cache's locking is sound.
func TestCachedSweepSingleFlight(t *testing.T) {
	sched := NewScheduler(2)
	const (
		key     = "singleflight-test"
		callers = 8
	)
	results := make([][]PointResult, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		i := i
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait() // maximize contention on the first access
			results[i], errs[i] = sched.CachedSweep(key, []int{0, 4}, TriangularFactory, 1)
		}()
	}
	start.Done()
	done.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := sched.Stats().Requested; got != 4 {
		t.Fatalf("sweep requested %d runs for one key, want 4 (one execution of 2 points × 2 algorithms)", got)
	}
	for i := 1; i < callers; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d received a different result slice", i)
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d received different results", i)
		}
	}
}
