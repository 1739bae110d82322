package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dynbench"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "ext-threshold", Paper: "§5.2 (results beyond workload 28, not shown in the paper)",
		Title: "Ramp behaviour past the saturation threshold: winner alternation",
		Run:   runExtThreshold})
	register(Experiment{ID: "ext-multitask", Paper: "§3 model generality (evaluation used one task)",
		Title: "Combined metric with 1-3 periodic tasks sharing the cluster",
		Run:   runExtMultitask})
	register(Experiment{ID: "ext-slack", Paper: "ablation of Figure 5's slack sl = 0.2·dl",
		Title: "Sensitivity of the predictive algorithm to the required slack",
		Run:   runExtSlack})
	register(Experiment{ID: "ext-ut", Paper: "ablation of Table 1's 20% threshold",
		Title: "Sensitivity of the non-predictive algorithm to UT",
		Run:   runExtUT})
	register(Experiment{ID: "ext-patterns", Paper: "workload-pattern extension",
		Title: "Step, burst and sinusoid workloads at a fixed max workload",
		Run:   runExtPatterns})
}

func runExtThreshold(ctx Context) (Output, error) {
	points := []int{28, 32, 36, 40, 44, 48, 52, 56, 60}
	if ctx.Quick {
		points = []int{28, 40, 52}
	}
	results, err := ctx.scheduler().Sweep(context.Background(), points, IncreasingFactory, 1)
	if err != nil {
		return Output{}, err
	}
	pts, pred, nonpred := byPoint(results)
	t := &Table{
		Title: "ext-threshold — increasing ramp beyond the saturation threshold",
		Columns: []string{"max workload", "C pred", "C nonpred", "winner",
			"MD% pred", "MD% nonpred"},
		Notes: []string{
			"the paper reports (without figures) that beyond max workload ≈ 28 the two algorithms alternate; " +
				"this experiment materializes that region",
		},
	}
	flips := 0
	last := ""
	for _, p := range pts {
		w := winner(pred[p].Combined(), nonpred[p].Combined())
		if last != "" && w != last {
			flips++
		}
		last = w
		t.AddRow(p, pred[p].Combined(), nonpred[p].Combined(), w,
			pred[p].MissedPct(), nonpred[p].MissedPct())
	}
	t.Notes = append(t.Notes, fmt.Sprintf("winner changed %d time(s) across the region", flips))
	return Output{ID: "ext-threshold", Tables: []*Table{t}}, nil
}

func runExtMultitask(ctx Context) (Output, error) {
	const maxW = 8 * WorkloadUnit
	t := &Table{
		Title:   "ext-multitask — triangular workload, 1-3 tasks sharing the six nodes",
		Columns: []string{"tasks", "algorithm", "MD%", "CPU%", "Net%", "replicas", "C"},
		Notes: []string{
			"each extra task runs the same pipeline with offset home placement; eq. (5)'s Σ ds(Ti,c) " +
				"now spans several tasks",
		},
	}
	for n := 1; n <= 3; n++ {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			var setups []core.TaskSetup
			for i := 0; i < n; i++ {
				s, err := BenchmarkSetup(workload.NewTriangular(MinWorkload, maxW, SweepPeriods, 2))
				if err != nil {
					return Output{}, err
				}
				s.Spec.Name = fmt.Sprintf("AAW-%d", i+1)
				homes := make([]int, len(s.Spec.Subtasks))
				for j := range homes {
					homes[j] = (j + i*2) % 6
				}
				s.Homes = homes
				setups = append(setups, s)
			}
			cfg := core.DefaultConfig()
			cfg.Seed = uint64(1000 + n)
			out, err := ctx.run(cfg, alg, setups)
			if err != nil {
				return Output{}, err
			}
			m := out.Metrics
			t.AddRow(n, string(alg), m.MissedPct(), m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas, m.Combined())
		}
	}
	return Output{ID: "ext-multitask", Tables: []*Table{t}}, nil
}

func runExtSlack(ctx Context) (Output, error) {
	const maxW = 24 * WorkloadUnit
	t := &Table{
		Title:   "ext-slack — predictive algorithm with varying required slack (paper: 0.2)",
		Columns: []string{"slack fraction", "MD%", "CPU%", "Net%", "replicas", "C"},
	}
	for _, sl := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
		setup, err := BenchmarkSetup(workload.NewTriangular(MinWorkload, maxW, SweepPeriods, 2))
		if err != nil {
			return Output{}, err
		}
		cfg := core.DefaultConfig()
		cfg.Monitor.SlackFraction = sl
		if cfg.Monitor.HighSlackFraction <= sl {
			cfg.Monitor.HighSlackFraction = sl + 0.3
		}
		out, err := ctx.run(cfg, core.Predictive, []core.TaskSetup{setup})
		if err != nil {
			return Output{}, err
		}
		m := out.Metrics
		t.AddRow(sl, m.MissedPct(), m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas, m.Combined())
	}
	return Output{ID: "ext-slack", Tables: []*Table{t}}, nil
}

func runExtUT(ctx Context) (Output, error) {
	const maxW = 24 * WorkloadUnit
	t := &Table{
		Title:   "ext-ut — non-predictive algorithm with varying utilization threshold (Table 1: 0.2)",
		Columns: []string{"UT", "MD%", "CPU%", "Net%", "replicas", "C"},
	}
	for _, ut := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		setup, err := BenchmarkSetup(workload.NewTriangular(MinWorkload, maxW, SweepPeriods, 2))
		if err != nil {
			return Output{}, err
		}
		cfg := core.DefaultConfig()
		cfg.UtilThreshold = ut
		out, err := ctx.run(cfg, core.NonPredictive, []core.TaskSetup{setup})
		if err != nil {
			return Output{}, err
		}
		m := out.Metrics
		t.AddRow(ut, m.MissedPct(), m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas, m.Combined())
	}
	return Output{ID: "ext-ut", Tables: []*Table{t}}, nil
}

func runExtPatterns(ctx Context) (Output, error) {
	const maxW = 24 * WorkloadUnit
	patterns := []workload.Pattern{
		workload.NewStep(MinWorkload, maxW, SweepPeriods, SweepPeriods/3),
		workload.NewBurst(MinWorkload, maxW, SweepPeriods, 20, 5),
		workload.NewSinusoid(MinWorkload, maxW, SweepPeriods, 3),
	}
	t := &Table{
		Title:   "ext-patterns — additional workload shapes at max workload 24 units",
		Columns: []string{"pattern", "algorithm", "MD%", "CPU%", "Net%", "replicas", "C"},
	}
	for _, p := range patterns {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			setup, err := BenchmarkSetup(p)
			if err != nil {
				return Output{}, err
			}
			out, err := ctx.run(core.DefaultConfig(), alg, []core.TaskSetup{setup})
			if err != nil {
				return Output{}, err
			}
			m := out.Metrics
			t.AddRow(p.Name(), string(alg), m.MissedPct(), m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas, m.Combined())
		}
	}
	return Output{ID: "ext-patterns", Tables: []*Table{t}}, nil
}

func init() {
	register(Experiment{ID: "ext-faults", Paper: "§1 motivation (survivability via replication)",
		Title: "Node crashes during a triangular run: fail-over and instance loss",
		Run:   runExtFaults})
}

func runExtFaults(ctx Context) (Output, error) {
	t := &Table{
		Title:   "ext-faults — two node crashes (node 2 @30s for 20s, node 4 @70s for 15s)",
		Columns: []string{"max workload", "algorithm", "lost", "MD%", "failovers", "C"},
		Notes: []string{
			"lost = instances that never completed because their work died with a node",
			"at low workload the crashed node hosts the only Filter/EvalDecide process " +
				"(relocation needed); at high workload replication already provides survivors",
		},
	}
	faults := []core.Fault{
		{Node: 2, At: 30200 * sim.Millisecond, Duration: 20 * sim.Second},
		{Node: 4, At: 70200 * sim.Millisecond, Duration: 15 * sim.Second},
	}
	for _, maxUnits := range []int{4, 16} {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			setup, err := BenchmarkSetup(TriangularFactory(maxUnits * WorkloadUnit))
			if err != nil {
				return Output{}, err
			}
			cfg := core.DefaultConfig()
			cfg.Faults = faults
			out, err := ctx.run(cfg, alg, []core.TaskSetup{setup})
			if err != nil {
				return Output{}, err
			}
			m := out.Metrics
			t.AddRow(maxUnits, string(alg), m.Periods-m.Completed, m.MissedPct(), out.Failovers, m.Combined())
		}
	}
	return Output{ID: "ext-faults", Tables: []*Table{t}}, nil
}

func init() {
	register(Experiment{ID: "ext-seeds", Paper: "methodology (single-run data points in §5.2)",
		Title: "Seed sensitivity: combined metric mean ± sd over 10 seeds",
		Run:   runExtSeeds})
}

func runExtSeeds(ctx Context) (Output, error) {
	seeds := 10
	if ctx.Quick {
		seeds = 3
	}
	t := &Table{
		Title:   "ext-seeds — combined metric across seeds (triangular pattern)",
		Columns: []string{"max workload", "algorithm", "C mean", "C sd", "min", "max"},
		Notes: []string{
			"the paper's figures use a single experiment per point; this quantifies how much " +
				"seed-to-seed variance that hides",
		},
	}
	sep := &Table{
		Title:   "ext-seeds — is the predictive advantage larger than the noise?",
		Columns: []string{"max workload", "mean advantage (C_np − C_p)", "pooled sd", "advantage/sd"},
	}
	for _, maxUnits := range []int{12, 20, 28} {
		means := map[core.Algorithm][]float64{}
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			var cs []float64
			for seed := 0; seed < seeds; seed++ {
				setup, err := BenchmarkSetup(TriangularFactory(maxUnits * WorkloadUnit))
				if err != nil {
					return Output{}, err
				}
				cfg := core.DefaultConfig()
				cfg.Seed = uint64(7777 + seed*13)
				out, err := ctx.run(cfg, alg, []core.TaskSetup{setup})
				if err != nil {
					return Output{}, err
				}
				cs = append(cs, out.Metrics.Combined())
			}
			means[alg] = cs
			s := stats.Summarize(cs)
			t.AddRow(maxUnits, string(alg), s.Mean, s.StdDev, s.Min, s.Max)
		}
		p, np := means[core.Predictive], means[core.NonPredictive]
		adv := stats.Mean(np) - stats.Mean(p)
		pooled := math.Sqrt((stats.Variance(p) + stats.Variance(np)) / 2)
		ratio := math.Inf(1)
		if pooled > 0 {
			ratio = adv / pooled
		}
		sep.AddRow(maxUnits, adv, pooled, ratio)
	}
	return Output{ID: "ext-seeds", Tables: []*Table{t, sep}}, nil
}

func init() {
	register(Experiment{ID: "ext-allocators", Paper: "extension (beyond the paper's two algorithms)",
		Title: "Four allocation policies compared on the triangular pattern",
		Run:   runExtAllocators})
}

func runExtAllocators(ctx Context) (Output, error) {
	points := []int{8, 16, 24, 32}
	if ctx.Quick {
		points = []int{8, 24}
	}
	algs := []core.Algorithm{core.Predictive, core.NonPredictive, core.Greedy, core.StaticMax}
	t := &Table{
		Title:   "ext-allocators — triangular pattern, four policies",
		Columns: []string{"max workload", "algorithm", "MD%", "CPU%", "Net%", "replicas", "C"},
		Notes: []string{
			"greedy: one replica per trigger, no forecast; static-max: full replication up front, no adaptation",
		},
	}
	for _, p := range points {
		for _, alg := range algs {
			setup, err := BenchmarkSetup(TriangularFactory(p * WorkloadUnit))
			if err != nil {
				return Output{}, err
			}
			out, err := ctx.run(core.DefaultConfig(), alg, []core.TaskSetup{setup})
			if err != nil {
				return Output{}, err
			}
			m := out.Metrics
			t.AddRow(p, string(alg), m.MissedPct(), m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas, m.Combined())
		}
	}
	return Output{ID: "ext-allocators", Tables: []*Table{t}}, nil
}

func init() {
	register(Experiment{ID: "ext-models", Paper: "fidelity ablation (DESIGN.md §3)",
		Title: "Predictive algorithm with profiled, published, and ground-truth models",
		Run:   runExtModels})
}

func runExtModels(ctx Context) (Output, error) {
	points := []int{8, 16, 24, 32}
	if ctx.Quick {
		points = []int{8, 24}
	}
	t := &Table{
		Title:   "ext-models — model source sensitivity (triangular pattern, predictive algorithm)",
		Columns: []string{"max workload", "models", "MD%", "CPU%", "Net%", "replicas", "C"},
		Notes: []string{
			"profiled: fitted from this simulator's §4.2.1 profiling runs (the default)",
			"paper: published Table 2/3 coefficients verbatim for the replicable subtasks",
			"ground-truth: exact demand curves — a forecast oracle",
		},
	}
	for _, p := range points {
		for _, source := range []ModelSource{SourceProfiled, SourcePaper, SourceGroundTruth} {
			setup, err := SetupWithModels(TriangularFactory(p*WorkloadUnit), source)
			if err != nil {
				return Output{}, err
			}
			out, err := ctx.run(core.DefaultConfig(), core.Predictive, []core.TaskSetup{setup})
			if err != nil {
				return Output{}, err
			}
			m := out.Metrics
			t.AddRow(p, string(source), m.MissedPct(), m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas, m.Combined())
		}
	}
	return Output{ID: "ext-models", Tables: []*Table{t}}, nil
}

func init() {
	register(Experiment{ID: "ext-overlap", Paper: "ablation (DESIGN.md §5: replica data halo)",
		Title: "Replication halo sweep: what partitioning overhead costs",
		Run:   runExtOverlap})
	register(Experiment{ID: "ext-warmup", Paper: "ablation (DESIGN.md §5: replica start-up cost)",
		Title: "Replica spawn cost sweep: what allocation churn costs",
		Run:   runExtWarmup})
}

func runExtOverlap(ctx Context) (Output, error) {
	const maxW = 24 * WorkloadUnit
	t := &Table{
		Title:   "ext-overlap — halo fraction sweep (triangular, both algorithms)",
		Columns: []string{"overlap", "algorithm", "MD%", "CPU%", "Net%", "replicas", "C"},
		Notes: []string{
			"the halo is the slice of neighbouring tracks every replica receives beyond its share " +
				"(default 0.10); it is the marginal cost of each extra replica",
		},
	}
	for _, overlap := range []float64{0, 0.05, 0.10, 0.20} {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			setup, err := BenchmarkSetup(TriangularFactory(maxW))
			if err != nil {
				return Output{}, err
			}
			cfg := core.DefaultConfig()
			cfg.OverlapFraction = overlap
			out, err := ctx.run(cfg, alg, []core.TaskSetup{setup})
			if err != nil {
				return Output{}, err
			}
			m := out.Metrics
			t.AddRow(overlap, string(alg), m.MissedPct(), m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas, m.Combined())
		}
	}
	return Output{ID: "ext-overlap", Tables: []*Table{t}}, nil
}

func runExtWarmup(ctx Context) (Output, error) {
	const maxW = 24 * WorkloadUnit
	t := &Table{
		Title:   "ext-warmup — replica spawn cost sweep (triangular, both algorithms)",
		Columns: []string{"warmup (ms)", "algorithm", "MD%", "replications", "shutdowns", "C"},
	}
	for _, warm := range []sim.Time{0, 25 * sim.Millisecond, 100 * sim.Millisecond, 400 * sim.Millisecond} {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			setup, err := BenchmarkSetup(TriangularFactory(maxW))
			if err != nil {
				return Output{}, err
			}
			cfg := core.DefaultConfig()
			cfg.WarmupDemand = warm
			out, err := ctx.run(cfg, alg, []core.TaskSetup{setup})
			if err != nil {
				return Output{}, err
			}
			m := out.Metrics
			t.AddRow(warm.Milliseconds(), string(alg), m.MissedPct(), m.Replications, m.Shutdowns, m.Combined())
		}
	}
	return Output{ID: "ext-warmup", Tables: []*Table{t}}, nil
}

func init() {
	register(Experiment{ID: "ext-sched", Paper: "ablation of Table 1's round-robin scheduler",
		Title: "CPU scheduling discipline: round-robin vs FIFO vs processor sharing",
		Run:   runExtSched})
}

func runExtSched(ctx Context) (Output, error) {
	const maxW = 24 * WorkloadUnit
	t := &Table{
		Title:   "ext-sched — scheduling discipline (triangular, both algorithms)",
		Columns: []string{"discipline", "algorithm", "MD%", "CPU%", "replicas", "C"},
		Notes: []string{
			"regression models stay profiled-under-round-robin: the ablation includes the model " +
				"mismatch a discipline change would cause in practice",
			"processor sharing is the fluid limit of round-robin (slice → 0); FIFO runs jobs to " +
				"completion in arrival order",
		},
	}
	for _, d := range []cpu.Discipline{cpu.RoundRobin, cpu.ProcessorSharing, cpu.FIFO} {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			setup, err := BenchmarkSetup(TriangularFactory(maxW))
			if err != nil {
				return Output{}, err
			}
			cfg := core.DefaultConfig()
			cfg.Discipline = d
			out, err := ctx.run(cfg, alg, []core.TaskSetup{setup})
			if err != nil {
				return Output{}, err
			}
			m := out.Metrics
			t.AddRow(d.String(), string(alg), m.MissedPct(), m.CPUUtilPct(), m.MeanReplicas, m.Combined())
		}
	}
	// The discipline's real signature is the contention law the
	// profiling step would observe: how a foreground job stretches under
	// background load.
	law := &Table{
		Title:   "ext-sched — Filter latency (ms) at 4800 tracks under background load, per discipline",
		Columns: []string{"discipline", "u=0%", "u=40%", "u=80%"},
		Notes: []string{
			"FIFO blocks behind whole background chunks instead of interleaving, so its " +
				"contended latency differs from the sharing disciplines'",
		},
	}
	spec := dynbench.NewTask(dynbench.Config{})
	for _, d := range []cpu.Discipline{cpu.RoundRobin, cpu.ProcessorSharing, cpu.FIFO} {
		row := []any{d.String()}
		for _, u := range []float64{0, 0.4, 0.8} {
			samples, err := profile.ExecSamples(spec.Subtasks[dynbench.FilterStage].Demand,
				profile.ExecGrid{Utils: []float64{u}, Items: []int{4800}, Reps: 3, Discipline: d}, 41)
			if err != nil {
				return Output{}, err
			}
			var mean float64
			for _, s := range samples {
				mean += s.Latency.Milliseconds() / float64(len(samples))
			}
			row = append(row, mean)
		}
		law.AddRow(row...)
	}
	return Output{ID: "ext-sched", Tables: []*Table{t, law}}, nil
}

func init() {
	register(Experiment{ID: "ext-smoothing", Paper: "ablation (monitoring cadence, §4.1)",
		Title: "Latency-smoothing window: reaction speed vs churn",
		Run:   runExtSmoothing})
}

func runExtSmoothing(ctx Context) (Output, error) {
	const maxW = 24 * WorkloadUnit
	t := &Table{
		Title:   "ext-smoothing — monitor smoothing window (triangular, predictive)",
		Columns: []string{"window", "MD%", "replications", "shutdowns", "replicas", "C"},
		Notes: []string{
			"window 1 is the paper's per-period monitoring; larger windows damp spikes but react " +
				"later to genuine workload change",
		},
	}
	for _, w := range []int{1, 2, 3, 5} {
		setup, err := BenchmarkSetup(TriangularFactory(maxW))
		if err != nil {
			return Output{}, err
		}
		cfg := core.DefaultConfig()
		cfg.Monitor.SmoothingWindow = w
		out, err := ctx.run(cfg, core.Predictive, []core.TaskSetup{setup})
		if err != nil {
			return Output{}, err
		}
		m := out.Metrics
		t.AddRow(w, m.MissedPct(), m.Replications, m.Shutdowns, m.MeanReplicas, m.Combined())
	}
	return Output{ID: "ext-smoothing", Tables: []*Table{t}}, nil
}
