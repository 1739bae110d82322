package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// The big topology is the one cmd/benchrunner records: 8 network
// segments (lanes) of 8 processors each, six tasks per segment from two
// period classes, with demand shapes varying by task index so segments
// adapt on decorrelated schedules. The pattern is shorter than
// benchrunner's, so one measured phase holds enough runs for a tail
// percentile.
const (
	bigLanes    = 8
	bigNumTasks = 6 * bigLanes
	bigPeriods  = 16
)

func bigPattern(i, periods int) workload.Pattern {
	switch i % 3 {
	case 0:
		return workload.NewStep(500, 6000, periods, periods/2)
	case 1:
		return workload.NewTriangular(500, 5000, periods, 4)
	default:
		return workload.NewConstant(2500, periods)
	}
}

func bigSetups() ([]core.TaskSetup, error) {
	setups := make([]core.TaskSetup, bigNumTasks)
	for i := range setups {
		// The second period class runs at twice the rate over twice as
		// many periods, so both classes span the same simulated horizon.
		fast := i >= bigNumTasks/2
		periods := bigPeriods
		if fast {
			periods *= 2
		}
		s, err := experiment.BenchmarkSetup(bigPattern(i, periods))
		if err != nil {
			return nil, err
		}
		s.Spec.Name = fmt.Sprintf("BT%02d", i)
		if fast {
			s.Spec.Period /= 2
			s.Spec.Deadline /= 2
		}
		setups[i] = s
	}
	return setups, nil
}

// runBigTopology runs the 64-node, 8-lane topology, one core.Run after
// another, on the serial lane driver (Parallel=1); the seed is the run's
// simulation seed. The unit of work is one engine event; an operation is
// one run.
//
// The measured runs are serial because a lane barrier waits for the
// slowest worker, so on a shared host a run at Parallel=nproc pays for
// every stall of either core: over ten runs with a noisy neighbour its
// p95 moved by half (quartile spread 0.51) while the serial driver's
// moved by a twentieth in the same period. The parallel driver is still
// run every time: its result is the reference each measured run must
// equal, and the traced run measures its speedup and its barrier
// waits.
func runBigTopology(e *env) (*report, error) {
	// The tail is p90: 550 to 650 runs fit in a 25 s phase on a 2-core
	// host, but beyond p90 a run's time is set by the host's bursts.
	// Over ten runs in a quiet period the quartile spread of p90 was 0.13,
	// of p95 0.20 and of p98 0.24; in a noisy one p95's reached 0.48.
	r := &report{layers: map[string]float64{}, tailCap: 90}
	var setups []core.TaskSetup
	if err := timeSetup(r, func() (cleanup func(), err error) {
		setups, err = bigSetups()
		return nil, err
	}); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.NumNodes = bigLanes * 8
	cfg.Lanes = bigLanes
	rng := splitmix(e.seed)
	cfg.Seed = rng.next()
	parallel := cfg
	parallel.Parallel = e.nproc
	cfg.Parallel = 1

	ref, err := core.Run(parallel, core.Predictive, setups)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ { // warm-up, not measured
		if _, err := core.Run(cfg, core.Predictive, setups); err != nil {
			return nil, err
		}
	}

	lat := &latencies{}
	var runCPU, rate []float64
	var events uint64
	var timed time.Duration
	heap := watchHeap()
	e.tr.startProfiling()
	deadline := time.Now().Add(e.seconds)
	for time.Now().Before(deadline) {
		traced := e.tr.active()
		c0 := cpuSeconds()
		start := time.Now()
		res, err := core.Run(cfg, core.Predictive, setups)
		d := time.Since(start)
		runCPU = append(runCPU, cpuSeconds()-c0)
		e.tr.span("core.Run", start, start.Add(d))
		r.attempted++
		if err != nil {
			r.failed++
			r.failCheck("run: %v", err)
			continue
		}
		if !r.checkf(res.EventsFired == ref.EventsFired && reflect.DeepEqual(res.Metrics, ref.Metrics),
			"serial lane driver (events %d) differs from the parallel one (events %d)", res.EventsFired, ref.EventsFired) {
			r.failed++
		}
		lat.add(float64(d.Nanoseconds())/1e6, traced)
		rate = append(rate, float64(res.EventsFired)/d.Seconds())
		events += res.EventsFired
		timed += d
	}
	e.tr.stopProfiling()
	heap.finish(r)
	lat.into(r)
	r.workPerS = median(rate)
	r.cpuPerPass = median(runCPU)

	if e.tr != nil {
		r.layers["sim.events"] = float64(ref.EventsFired)
		if events > 0 {
			r.layers["sim.ns_per_event"] = float64(timed.Nanoseconds()) / float64(events)
		}
		if err := laneLayers(r, e.nproc, cfg, parallel, setups); err != nil {
			return nil, err
		}
		allocs, bytes, err := memDelta(func() error {
			_, err := core.Run(cfg, core.Predictive, setups)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.layers["core.allocs_per_run"] = float64(allocs)
		r.layers["core.bytes_per_run"] = float64(bytes)
		if err := e.tr.attributeLayers(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// laneLayers times the same run on the serial and the parallel lane
// driver, five of each, alternating, with nproc Ps: lanes.speedup is
// the ratio of their median walls. The block profiler samples the
// parallel runs (blocking events of about 10 µs and longer), and
// lanes.block_s is their mean delay per run under sim.(*LaneSet), the
// lane barrier.
func laneLayers(r *report, nproc int, serial, parallel core.Config, setups []core.TaskSetup) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc))
	const reps = 5
	var ser, par []float64
	for i := 0; i < reps; i++ {
		for _, c := range []struct {
			cfg   core.Config
			out   *[]float64
			block int
		}{{serial, &ser, 0}, {parallel, &par, 10_000}} {
			runtime.SetBlockProfileRate(c.block)
			start := time.Now()
			_, err := core.Run(c.cfg, core.Predictive, setups)
			*c.out = append(*c.out, time.Since(start).Seconds())
			runtime.SetBlockProfileRate(0)
			if err != nil {
				return err
			}
		}
	}
	r.layers["lanes.speedup"] = median(ser) / median(par)
	var buf bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&buf, 0); err != nil {
		return err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	r.layers["lanes.block_s"] = blockedIn(samples, "repro/internal/sim.(*LaneSet)") / reps
	return nil
}
