// Package repro's root benchmarks regenerate each paper artifact under
// the Go benchmark harness: one benchmark per table and figure (the
// `rmexperiments` command prints the full sweeps; these time one
// representative unit of each), plus ablation benchmarks for the design
// choices called out in DESIGN.md §5.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dynbench"
	"repro/internal/experiment"
	"repro/internal/network"
	"repro/internal/profile"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runOne executes a single simulation run and reports the combined metric.
func runOne(b *testing.B, alg core.Algorithm, pattern workload.Pattern, mutate func(*core.Config)) {
	b.Helper()
	setup, err := experiment.BenchmarkSetup(pattern)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	b.ResetTimer()
	var c float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, alg, []core.TaskSetup{setup})
		if err != nil {
			b.Fatal(err)
		}
		c = res.Metrics.Combined()
	}
	b.ReportMetric(c, "combined-C")
}

// --- Tables -------------------------------------------------------------

func BenchmarkTable1BaselineSystemConstruction(b *testing.B) {
	setup, err := experiment.BenchmarkSetup(workload.NewConstant(500, 2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.DefaultConfig(), core.Predictive, []core.TaskSetup{setup}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2ExecRegressionFit(b *testing.B) {
	truth := dynbench.GroundTruthExec(dynbench.FilterStage)
	var samples []regress.ExecSample
	for _, u := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		for _, items := range []int{300, 900, 2100, 4200, 7500} {
			samples = append(samples, regress.ExecSample{
				Items: items, Util: u, Latency: truth.Latency(items, u)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := regress.FitExecModel(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3BufferSlopeFit(b *testing.B) {
	samples, err := profile.CommSamples(network.DefaultConfig(), profile.DefaultCommGrid())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.FitBufferSlope(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Profiling figures ---------------------------------------------------

func BenchmarkFig2FilterLatencyCurve(b *testing.B) {
	spec := dynbench.NewTask(dynbench.DefaultConfig())
	grid := profile.ExecGrid{Utils: []float64{0.8}, Items: []int{300, 2100, 4500, 7500}, Reps: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := profile.ExecSamples(spec.Subtasks[dynbench.FilterStage].Demand, grid, 23)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := regress.FitPerUtilCurve(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3EvalDecideLatencyCurve(b *testing.B) {
	spec := dynbench.NewTask(dynbench.DefaultConfig())
	grid := profile.ExecGrid{Utils: []float64{0.6}, Items: []int{300, 2100, 4500, 7500}, Reps: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := profile.ExecSamples(spec.Subtasks[dynbench.EvalDecideStage].Demand, grid, 23)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := regress.FitPerUtilCurve(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4LatencySurface(b *testing.B) {
	spec := dynbench.NewTask(dynbench.DefaultConfig())
	grid := profile.ExecGrid{
		Utils: []float64{0, 0.4, 0.8},
		Items: []int{300, 2100, 4500, 7500},
		Reps:  1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.ExecSamples(spec.Subtasks[dynbench.FilterStage].Demand, grid, 29); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8WorkloadPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.Series(workload.NewIncreasingRamp(500, 15000, 30))
		workload.Series(workload.NewDecreasingRamp(500, 15000, 30))
		workload.Series(workload.NewTriangular(500, 15000, 30, 1))
	}
}

// --- Evaluation figures (one representative sweep point each) ------------

func BenchmarkFig9TriangularPredictive(b *testing.B) {
	runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit), nil)
}

func BenchmarkFig9TriangularNonPredictive(b *testing.B) {
	runOne(b, core.NonPredictive, experiment.TriangularFactory(20*experiment.WorkloadUnit), nil)
}

func BenchmarkFig10CombinedMetricTriangular(b *testing.B) {
	setupP, err := experiment.BenchmarkSetup(experiment.TriangularFactory(20 * experiment.WorkloadUnit))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			if _, err := core.Run(core.DefaultConfig(), alg, []core.TaskSetup{setupP}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig11IncreasingRampPoint(b *testing.B) {
	runOne(b, core.Predictive, experiment.IncreasingFactory(20*experiment.WorkloadUnit), nil)
}

func BenchmarkFig12DecreasingRampPoint(b *testing.B) {
	runOne(b, core.Predictive, experiment.DecreasingFactory(20*experiment.WorkloadUnit), nil)
}

func BenchmarkFig13CombinedMetricRamps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, f := range []experiment.PatternFactory{experiment.IncreasingFactory, experiment.DecreasingFactory} {
			setup, err := experiment.BenchmarkSetup(f(20 * experiment.WorkloadUnit))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Run(core.DefaultConfig(), core.Predictive, []core.TaskSetup{setup}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblationOverlapZero removes the replica data halo: replication
// becomes free on the network, isolating the halo's contribution to the
// combined metric.
func BenchmarkAblationOverlapZero(b *testing.B) {
	runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit),
		func(c *core.Config) { c.OverlapFraction = 0 })
}

// BenchmarkAblationNoWarmup removes the replica spawn cost.
func BenchmarkAblationNoWarmup(b *testing.B) {
	runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit),
		func(c *core.Config) { c.WarmupDemand = 0 })
}

// BenchmarkAblationRRFastPath measures the scheduler's lone-job fast path
// against forced per-slice interleaving (two co-located jobs).
func BenchmarkAblationRRFastPath(b *testing.B) {
	b.Run("lone-job", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			p := cpu.NewProcessor(eng, 0, cpu.DefaultSlice)
			p.Submit(&cpu.Job{Demand: 500 * sim.Millisecond})
			eng.Run()
		}
	})
	b.Run("contended", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			p := cpu.NewProcessor(eng, 0, cpu.DefaultSlice)
			p.Submit(&cpu.Job{Demand: 250 * sim.Millisecond})
			p.Submit(&cpu.Job{Demand: 250 * sim.Millisecond})
			eng.Run()
		}
	})
}

// BenchmarkEngineEventThroughput is the simulation substrate's raw speed.
func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Microsecond, func() {})
		eng.Step()
	}
}

// BenchmarkSegmentThroughput times message transport on the shared medium.
func BenchmarkSegmentThroughput(b *testing.B) {
	eng := sim.NewEngine()
	seg := network.NewSegment(eng, network.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.Send(&network.Message{From: i % 6, To: (i + 1) % 6, PayloadBytes: 8000})
		eng.Run()
	}
}

// BenchmarkAblationDisciplines compares simulation cost across CPU
// scheduling disciplines at a fixed workload point.
func BenchmarkAblationDisciplines(b *testing.B) {
	for _, d := range []cpu.Discipline{cpu.RoundRobin, cpu.FIFO, cpu.ProcessorSharing} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit),
				func(c *core.Config) { c.Discipline = d })
		})
	}
}
