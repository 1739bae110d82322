// The three walkthroughs README points to, as runnable examples: each
// runs a complete simulation through core.Run, or through
// core.RunObservedContext with a trace.Recording where it prints what
// the run did, and pins what it prints.
// Run one with `go test -run '^Example_quickstart$' -v .`.
package repro_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Quickstart: build the paper's Table 1 system, run the predictive
// resource manager against a workload step, and print what it did.
func Example_quickstart() {
	// A step workload: 500 tracks per period, jumping to 8 000 at period
	// 10 — the kind of abrupt change run-time monitoring exists for.
	pattern := workload.NewStep(500, 8000, 30, 10)

	// BenchmarkSetup profiles the benchmark pipeline (once per process)
	// and binds the fitted eq. (3)/(5) regression models to the task.
	setup, err := experiment.BenchmarkSetup(pattern)
	if err != nil {
		log.Fatal(err)
	}

	// The recording keeps the run's observation stream: its adaptation
	// actions and completed periods.
	rec := &trace.Recording{}
	res, err := core.RunObservedContext(context.Background(), core.DefaultConfig(), core.Predictive, []core.TaskSetup{setup}, rec)
	if err != nil {
		log.Fatal(err)
	}

	m := res.Metrics
	fmt.Println("predictive adaptive resource management — workload step 500 → 8000 tracks")
	fmt.Printf("  instances completed: %d/%d, missed deadlines: %d (%.1f%%)\n",
		m.Completed, m.Periods, m.Missed, m.MissedPct())
	fmt.Printf("  mean CPU %.1f%%, mean network %.1f%%, mean replicas %.2f\n",
		m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas)
	fmt.Printf("  combined performance metric C = %.1f\n\n", m.Combined())

	fmt.Println("adaptation timeline:")
	for _, e := range rec.Adaptations() {
		fmt.Println("  ", e)
	}
	fmt.Println("\nper-period latency around the step:")
	for _, e := range rec.Events {
		if e.Kind == trace.KindEndToEnd && e.Period >= 8 && e.Period <= 14 {
			status := "met"
			if e.Missed {
				status = "MISSED"
			}
			fmt.Printf("   period %d: %d items, latency %v (%s)\n", e.Period, e.Value, e.Latency, status)
		}
	}
	// Output:
	// predictive adaptive resource management — workload step 500 → 8000 tracks
	//   instances completed: 30/30, missed deadlines: 2 (6.7%)
	//   mean CPU 10.7%, mean network 14.7%, mean replicas 3.00
	//   combined performance metric C = 82.0
	//
	// adaptation timeline:
	//    t=12.000s period=12 task=AAW stage=2 replicate procs=[5 1 0]
	//    t=12.000s period=12 task=AAW stage=4 replicate procs=[5]
	//    t=13.000s period=13 task=AAW stage=4 replicate procs=[2]
	//    t=14.000s period=14 task=AAW stage=4 replicate procs=[1]
	//    t=15.000s period=15 task=AAW stage=4 replicate procs=[3]
	//
	// per-period latency around the step:
	//    period 8: 500 items, latency 43.749ms (met)
	//    period 9: 500 items, latency 43.444ms (met)
	//    period 10: 8000 items, latency 1531.238ms (MISSED)
	//    period 11: 8000 items, latency 1551.536ms (MISSED)
	//    period 12: 8000 items, latency 746.144ms (met)
	//    period 13: 8000 items, latency 644.391ms (met)
	//    period 14: 8000 items, latency 628.379ms (met)
}

// Fluctuating workload: the paper's headline scenario. Runs both
// allocators against the same triangular pattern and prints the §5.2
// metrics side by side, plus a sparkline of replica usage over time.
func Example_fluctuating() {
	const (
		minW    = 500
		maxW    = 12000
		periods = 120
	)
	pattern := workload.NewTriangular(minW, maxW, periods, 2)
	fmt.Printf("triangular workload %d..%d tracks, %d periods, 2 cycles\n\n", minW, maxW, periods)

	results := map[core.Algorithm]core.Result{}
	recordings := map[core.Algorithm]*trace.Recording{}
	for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
		setup, err := experiment.BenchmarkSetup(pattern)
		if err != nil {
			log.Fatal(err)
		}
		rec := &trace.Recording{}
		res, err := core.RunObservedContext(context.Background(), core.DefaultConfig(), alg, []core.TaskSetup{setup}, rec)
		if err != nil {
			log.Fatal(err)
		}
		results[alg], recordings[alg] = res, rec
	}

	fmt.Printf("%-22s %12s %15s\n", "metric", "predictive", "non-predictive")
	p, n := results[core.Predictive].Metrics, results[core.NonPredictive].Metrics
	row := func(name string, f func(metrics.RunMetrics) float64) {
		fmt.Printf("%-22s %12.2f %15.2f\n", name, f(p), f(n))
	}
	row("missed deadlines %", metrics.RunMetrics.MissedPct)
	row("mean CPU util %", metrics.RunMetrics.CPUUtilPct)
	row("mean network util %", metrics.RunMetrics.NetUtilPct)
	row("mean replicas", func(m metrics.RunMetrics) float64 { return m.MeanReplicas })
	row("combined metric C", metrics.RunMetrics.Combined)
	fmt.Printf("%-22s %12d %15d\n", "replications", p.Replications, n.Replications)
	fmt.Printf("%-22s %12d %15d\n", "shutdowns", p.Shutdowns, n.Shutdowns)

	fmt.Println("\nreplica activity over time (each char = 4 periods, height = adaptation count):")
	for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
		// An Output block cannot hold trailing blanks, so idle trailing
		// cells are trimmed.
		fmt.Printf("  %-15s %s\n", alg, strings.TrimRight(sparkline(recordings[alg].Adaptations(), periods), " "))
	}
	fmt.Println("\nThe predictive algorithm reaches a lower combined metric by holding")
	fmt.Println("fewer replicas: it adds capacity only until the forecast latency fits")
	fmt.Println("inside the subtask deadline minus the 20% slack (paper Figure 5).")
	// Output:
	// triangular workload 500..12000 tracks, 120 periods, 2 cycles
	//
	// metric                   predictive  non-predictive
	// missed deadlines %             0.00            0.00
	// mean CPU util %               12.38           12.18
	// mean network util %           18.11           18.56
	// mean replicas                  3.57            3.59
	// combined metric C             90.01           90.60
	// replications                     20              19
	// shutdowns                        20              19
	//
	// replica activity over time (each char = 4 periods, height = adaptation count):
	//   predictive       . .=+-%*  :*:   ..=+-%#  -*.
	//   non-predictive   .:.--+%#: -+.    := *%%- :*.
	//
	// The predictive algorithm reaches a lower combined metric by holding
	// fewer replicas: it adds capacity only until the forecast latency fits
	// inside the subtask deadline minus the 20% slack (paper Figure 5).
}

// sparkline buckets adaptation events into 4-period cells.
func sparkline(events []*trace.AdaptationEvent, periods int) string {
	const cell = 4
	buckets := make([]int, (periods+cell-1)/cell)
	for _, e := range events {
		if b := e.Period / cell; b >= 0 && b < len(buckets) {
			buckets[b]++
		}
	}
	marks := []rune(" .:-=+*#%@")
	var b strings.Builder
	for _, v := range buckets {
		if v >= len(marks) {
			v = len(marks) - 1
		}
		b.WriteRune(marks[v])
	}
	return b.String()
}

// Survivability: the motivation the paper opens with — "continued
// availability of application functionality" — exercised directly. A node
// crash takes out the Filter subtask's host mid-run; the resource manager
// detects the loss at the next monitoring cycle and relocates (or simply
// re-balances) the stream onto surviving nodes.
//
// The second half swaps the scripted crash for a stochastic fault
// process: every node crashes at random with a 45 s MTBF and an 8 s MTTR,
// messages drop off the wire, and the hardened manager (delivery
// watchdog, staleness window, shutdown cooldown) keeps the pipeline
// alive through whatever schedule the seed draws.
func Example_survivability() {
	// A steady 6 000-track workload; node 2 (the Filter home) crashes at
	// t = 20.3 s, mid-pipeline, and recovers 30 s later.
	setup, err := experiment.BenchmarkSetup(workload.NewConstant(6000, 70))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Faults = []core.Fault{{Node: 2, At: 20300 * sim.Millisecond, Duration: 30 * sim.Second}}

	rec := &trace.Recording{}
	res, err := core.RunObservedContext(context.Background(), cfg, core.Predictive, []core.TaskSetup{setup}, rec)
	if err != nil {
		log.Fatal(err)
	}

	m := res.Metrics
	fmt.Println("node 2 (Filter host) crashes at t=20.3s, recovers at t=50.3s")
	fmt.Printf("  instances: %d released, %d completed, %d lost with the node\n",
		m.Periods, m.Completed, m.Periods-m.Completed)
	fmt.Printf("  missed-deadline ratio (lost count as missed): %.1f%%\n\n", m.MissedPct())

	fmt.Println("fail-over timeline:")
	for _, e := range rec.Adaptations() {
		switch e.Kind {
		case trace.ActionNodeDown, trace.ActionNodeUp, trace.ActionFailover:
			fmt.Printf("  t=%-9v %-10s stage=%d procs=%v\n", e.At, e.Kind, e.Stage, e.Procs)
		}
	}

	fmt.Println("\nper-period completion around the crash:")
	completedBy := map[int]bool{}
	for _, e := range rec.Events {
		if e.Kind == trace.KindEndToEnd {
			completedBy[int(e.Period)] = true
		}
	}
	for c := 18; c <= 24; c++ {
		status := "completed"
		if !completedBy[c] {
			status = "LOST (work died with the node)"
		}
		fmt.Printf("  period %d: %s\n", c, status)
	}
	fmt.Println("\nReplication exists for exactly this: with more than one replica the")
	fmt.Println("surviving processes absorb the stream and only the in-flight instance")
	fmt.Println("is lost; with a single process the manager relocates it in one cycle.")

	stochastic()
	// Output:
	// node 2 (Filter host) crashes at t=20.3s, recovers at t=50.3s
	//   instances: 70 released, 69 completed, 1 lost with the node
	//   missed-deadline ratio (lost count as missed): 1.4%
	//
	// fail-over timeline:
	//   t=20.300s   node-down  stage=-1 procs=[2]
	//   t=21.000s   failover   stage=2 procs=[2]
	//   t=50.300s   node-up    stage=-1 procs=[2]
	//
	// per-period completion around the crash:
	//   period 18: completed
	//   period 19: completed
	//   period 20: LOST (work died with the node)
	//   period 21: completed
	//   period 22: completed
	//   period 23: completed
	//   period 24: completed
	//
	// Replication exists for exactly this: with more than one replica the
	// surviving processes absorb the stream and only the in-flight instance
	// is lost; with a single process the manager relocates it in one cycle.
	//
	// --- stochastic variant: 45s MTBF / 8s MTTR on every node, 1% message loss ---
	//   crash schedule drawn from seed 42: 7 crashes, 7 recoveries
	//   instances: 70 released, 66 completed (5.7% missed)
	//   lossy wire: 2 messages dropped, 2 retransmitted by the watchdog
	//   mean recovery (crash -> next met deadline): 1211 ms
	//   fail-overs performed by the manager: 9
}

// stochastic reruns the scenario with crashes drawn from an exponential
// MTBF/MTTR process on every node plus a lossy segment, instead of one
// scripted fault. The schedule is a pure function of the seed: rerunning
// with the same seed replays the identical outage pattern.
func stochastic() {
	setup, err := experiment.BenchmarkSetup(workload.NewConstant(6000, 70))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	cfg.Chaos = chaos.Config{
		NodeMTBF: 45 * sim.Second, // each node crashes about every 45 s...
		NodeMTTR: 8 * sim.Second,  // ...and is back roughly 8 s later
		MaxDown:  2,               // never more than 2 of the 6 nodes down at once
	}
	cfg.Network.DropProb = 0.01 // 1% of wire messages vanish
	cfg.Degradation = core.HardenedDegradation()

	res, err := core.Run(cfg, core.Predictive, []core.TaskSetup{setup})
	if err != nil {
		log.Fatal(err)
	}

	m := res.Metrics
	fmt.Println("\n--- stochastic variant: 45s MTBF / 8s MTTR on every node, 1% message loss ---")
	fmt.Printf("  crash schedule drawn from seed %d: %d crashes, %d recoveries\n",
		cfg.Seed, m.Crashes, m.Recoveries)
	fmt.Printf("  instances: %d released, %d completed (%.1f%% missed)\n",
		m.Periods, m.Completed, m.MissedPct())
	fmt.Printf("  lossy wire: %d messages dropped, %d retransmitted by the watchdog\n",
		m.DroppedMessages, m.Retransmissions)
	if m.MeanRecoveryMS > 0 {
		fmt.Printf("  mean recovery (crash -> next met deadline): %.0f ms\n", m.MeanRecoveryMS)
	}
	fmt.Printf("  fail-overs performed by the manager: %d\n", res.Failovers)
}
