package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testSink adapts a callback and a sample cadence to Sink.
type testSink struct {
	every sim.Time
	emit  func(trace.Event)
}

func (t testSink) Emit(e trace.Event)    { t.emit(e) }
func (t testSink) SampleEvery() sim.Time { return t.every }

// TestObservedRunMatchesUnobserved proves the sink watches without
// shaping: a sampling and a non-sampling sink see the same stream, event
// for event, apart from the samples, and both runs' metrics equal the
// unobserved run's. (EventsFired legitimately differs — the sample
// events themselves fire.)
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cfg := DefaultConfig()
	setups := []TaskSetup{benchSetup(workload.NewTriangular(500, 9000, 30, 1))}
	plain, err := Run(cfg, Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}
	var sampled []trace.Event
	samples := 0
	observed, err := RunObservedContext(context.Background(), cfg, Predictive, setups, testSink{
		every: 100 * sim.Millisecond,
		emit: func(e trace.Event) {
			if e.Kind == trace.KindSample {
				samples++
				return
			}
			sampled = append(sampled, e)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("sink never sampled")
	}
	recorded := runRecorded(t, cfg, Predictive, setups...)
	for _, res := range []Result{observed, recorded.Result} {
		if !reflect.DeepEqual(plain.Metrics, res.Metrics) {
			t.Errorf("observed run drifted from unobserved:\n got %+v\nwant %+v", res.Metrics, plain.Metrics)
		}
	}
	if recorded.EventsFired != plain.EventsFired || recorded.Failovers != plain.Failovers {
		t.Errorf("recording changed the run's counters: %+v, want %+v", recorded.Result, plain)
	}
	if !reflect.DeepEqual(sampled, recorded.rec.Events) {
		t.Errorf("sampling and non-sampling sinks saw different streams (%d vs %d events)", len(sampled), len(recorded.rec.Events))
	}
	kinds := map[trace.Kind]int{}
	for _, e := range sampled {
		kinds[e.Kind]++
	}
	if kinds[trace.KindEndToEnd] != plain.Metrics.Completed || kinds[trace.KindAdaptation] == 0 {
		t.Errorf("stream carried %d completions (result %d) and %d adaptations (want > 0)",
			kinds[trace.KindEndToEnd], plain.Metrics.Completed, kinds[trace.KindAdaptation])
	}
	for _, k := range []trace.Kind{trace.KindExec, trace.KindJobWait, trace.KindMessage, trace.KindStage,
		trace.KindForecast, trace.KindForecastEval, trace.KindProcUtil, trace.KindNetUtil} {
		if kinds[k] == 0 {
			t.Errorf("stream carried no events of kind %d", k)
		}
	}
}

// TestObserverSampling pins the sampling contract: cadence from
// SampleEvery to the horizon, monotone times, copied placements,
// monotone counters, and a Final sample whose metrics equal the
// returned result's.
func TestObserverSampling(t *testing.T) {
	cfg := DefaultConfig()
	pattern := workload.NewConstant(4000, 10) // horizon 10s at the 1s period
	setups := []TaskSetup{benchSetup(pattern)}
	every := 500 * sim.Millisecond
	var obs []trace.Event
	res, err := RunObservedContext(context.Background(), cfg, Predictive, setups, testSink{
		every: every,
		emit: func(e trace.Event) {
			if e.Kind == trace.KindSample {
				obs = append(obs, e)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPeriodic := int(sim.Time(10) * sim.Second / every) // t=every..horizon inclusive
	if len(obs) != wantPeriodic+1 {
		t.Fatalf("got %d samples, want %d periodic + 1 final", len(obs), wantPeriodic)
	}
	for i, o := range obs[:wantPeriodic] {
		if o.Sample.Final {
			t.Errorf("sample %d marked final", i)
		}
		if want := sim.Time(i+1) * every; o.At != want {
			t.Errorf("sample %d at %v, want %v", i, o.At, want)
		}
	}
	final := obs[len(obs)-1].Sample
	if !final.Final {
		t.Fatal("last sample not marked final")
	}
	if !reflect.DeepEqual(final.Metrics, res.Metrics) {
		t.Errorf("final sample metrics != result metrics:\n got %+v\nwant %+v", final.Metrics, res.Metrics)
	}
	prevCompleted := -1
	for i, o := range obs {
		if len(o.Sample.Nodes) != cfg.NumNodes {
			t.Fatalf("sample %d: %d nodes, want %d", i, len(o.Sample.Nodes), cfg.NumNodes)
		}
		if len(o.Sample.Tasks) != 1 {
			t.Fatalf("sample %d: %d tasks, want 1", i, len(o.Sample.Tasks))
		}
		task := o.Sample.Tasks[0]
		if task.Completed < prevCompleted {
			t.Errorf("sample %d: completed went backwards (%d < %d)", i, task.Completed, prevCompleted)
		}
		prevCompleted = task.Completed
		if len(task.Stages) == 0 {
			t.Fatalf("sample %d: no stage placements", i)
		}
		for st, procs := range task.Stages {
			if len(procs) == 0 {
				t.Errorf("sample %d: stage %d has no replicas", i, st)
			}
		}
	}
	// Placement slices must be copies: mutating one sample can't corrupt
	// another (or the run, which already finished here).
	obs[0].Sample.Tasks[0].Stages[0][0] = -99
	if obs[1].Sample.Tasks[0].Stages[0][0] == -99 {
		t.Error("stage placements alias between samples")
	}
	if final.Metrics.Completed != 10 {
		t.Errorf("final completed = %d, want 10", final.Metrics.Completed)
	}
}

// TestObserverValidation covers the rejection paths and the
// non-sampling sink.
func TestObserverValidation(t *testing.T) {
	cfg := DefaultConfig()
	setups := []TaskSetup{benchSetup(workload.NewConstant(500, 2))}
	samples := 0
	count := func(e trace.Event) {
		if e.Kind == trace.KindSample {
			samples++
		}
	}
	if _, err := RunObservedContext(context.Background(), cfg, Predictive, setups, testSink{every: -sim.Second, emit: count}); err == nil {
		t.Error("negative sample cadence: want an error")
	}
	if _, err := RunObservedContext(context.Background(), cfg, Predictive, setups, testSink{emit: count}); err != nil {
		t.Fatal(err)
	}
	if samples != 0 {
		t.Errorf("a sink asking for no samples got %d", samples)
	}
	lanes := cfg
	lanes.Lanes = 2
	if _, err := RunObservedContext(context.Background(), lanes, Predictive, setups, testSink{every: sim.Second, emit: count}); err == nil {
		t.Error("lane-partitioned observed run should be rejected")
	}
}
