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
// shaping: the same spec run with and without a sampling sink yields
// identical metrics, period records and adaptation events. (EventsFired
// legitimately differs — the sample events themselves fire.)
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cfg := DefaultConfig()
	setups := []TaskSetup{benchSetup(workload.NewTriangular(500, 9000, 30, 1))}
	plain, err := Run(cfg, Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	var adaptations []trace.Event
	observed, err := RunObservedContext(context.Background(), cfg, Predictive, setups, testSink{
		every: 100 * sim.Millisecond,
		emit: func(e trace.Event) {
			kinds[e.Kind]++
			if e.Kind == trace.KindAdaptation {
				adaptations = append(adaptations, e)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if kinds[trace.KindSample] == 0 {
		t.Fatal("sink never sampled")
	}
	if !reflect.DeepEqual(plain.Metrics, observed.Metrics) {
		t.Errorf("observed run drifted from unobserved:\n got %+v\nwant %+v", observed.Metrics, plain.Metrics)
	}
	if !reflect.DeepEqual(plain.Records, observed.Records) || !reflect.DeepEqual(plain.Events, observed.Events) {
		t.Errorf("observed run's period records or adaptation events differ from unobserved")
	}
	// The stream carries every completion and every adaptation the
	// result holds, once each.
	if kinds[trace.KindEndToEnd] != len(plain.Records) {
		t.Errorf("stream carried %d completions, result holds %d", kinds[trace.KindEndToEnd], len(plain.Records))
	}
	if len(adaptations) != len(plain.Events) || len(plain.Events) == 0 {
		t.Fatalf("stream carried %d adaptations, result holds %d (want equal, > 0)", len(adaptations), len(plain.Events))
	}
	for i, e := range plain.Events {
		a := adaptations[i]
		if a.At != e.At || a.Action != e.Kind || int(a.Stage) != e.Stage || int(a.Period) != e.Period || a.Task != e.Task {
			t.Errorf("adaptation %d: stream %+v, result %+v", i, a, e)
		}
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
