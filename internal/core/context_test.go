package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunContextCancellation: a run whose context is cancelled stops
// with the context's error instead of simulating to the end. The sink
// cancels at the first state sample, so the test does not race the
// engine: no later sample may arrive.
func TestRunContextCancellation(t *testing.T) {
	pattern := workload.NewConstant(9000, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	samples := 0
	_, err := RunObservedContext(ctx, DefaultConfig(), Predictive, []TaskSetup{benchSetup(pattern)}, testSink{
		every: sim.Second,
		emit: func(e trace.Event) {
			if e.Kind == trace.KindSample {
				samples++
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
	if samples != 1 {
		t.Errorf("sink saw %d samples, want 1: the run went on after its context was cancelled", samples)
	}
}

// TestRunContextPreCancelled: an already-dead context fails before any
// simulation work.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, DefaultConfig(), Predictive, []TaskSetup{benchSetup(workload.NewConstant(500, 5))})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestRunContextBackgroundMatchesRun: threading context.Background through
// RunContext must not perturb the simulation — Run and RunContext produce
// identical results (the golden CSVs depend on this).
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	pattern := workload.NewTriangular(500, 6000, 40, 2)
	cfg := DefaultConfig()
	cfg.Seed = 321
	a, err := Run(cfg, Predictive, []TaskSetup{benchSetup(pattern)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, Predictive, []TaskSetup{benchSetup(pattern)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics || a.EventsFired != b.EventsFired {
		t.Errorf("RunContext(background) diverged from Run:\n got %+v events=%d\nwant %+v events=%d",
			b.Metrics, b.EventsFired, a.Metrics, a.EventsFired)
	}
	// A cancellable-but-never-cancelled context must also match: the
	// Step-loop drain path is observationally identical to eng.Run().
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := RunContext(ctx, cfg, Predictive, []TaskSetup{benchSetup(pattern)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != c.Metrics || a.EventsFired != c.EventsFired {
		t.Errorf("RunContext(cancellable) diverged from Run:\n got %+v events=%d\nwant %+v events=%d",
			c.Metrics, c.EventsFired, a.Metrics, a.EventsFired)
	}
}
