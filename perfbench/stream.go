package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/experiment"
)

// The live session's stream shape: 200 frames per wall second, one per
// 250 simulated ms, so the session needs seconds·rate frames. The rate
// is well below capacity: the whole stream costs under a tenth of one
// core. It is also the rate at which the lateness figures held steadiest
// on a shared 2-core host: at 100 frames per second the process idles
// between frames and every frame pays the host's wake-up latency (p90
// ranged from 1.15 to 1.85 ms over four runs); at 400 the pacer, sharing
// its P with the stream's handlers, missed its schedule often enough to
// move p50 by a fifth; at 200, p50 and p90 stayed within ±5% over four
// runs.
//
// Lateness beyond its 90th percentile is set by the host's scheduling
// stalls, not by the program: over six runs at 400 frames per second
// p90 moved by 8% (quartile spread), p95 by 17%, p98 by 46% and p99 by
// 80%. The tail reported for
// this workload is therefore p90, which still has about 1,000 samples
// beyond it.
const (
	streamRateHz   = 200
	streamSampleMS = 250
)

// frame is one frame as a subscriber received it.
type frame struct {
	seq     uint64
	kind    string
	arrived time.Time
	traced  bool
}

// runSessionStream runs one live session paced at a fixed rate and
// streams it to nproc SSE subscribers through client.StreamSession. It
// is an open loop: frames are due on the pacing schedule whatever the
// subscribers do. The unit of work is one frame delivered to one
// subscriber; an operation's latency is a frame's lateness against when
// the session's pacing rule made it due (see pacing).
func runSessionStream(e *env) (*report, error) {
	r := &report{layers: map[string]float64{}, tailCap: 90}
	frames := int(e.seconds.Seconds() * streamRateHz)
	samplesPerPeriod := 1000 / streamSampleMS
	// The seed is the run's simulation seed. The load shape is fixed: a
	// seeded one changed the state carried per frame, and with it the
	// stream's CPU time and heap, by a tenth from seed to seed.
	rng := splitmix(e.seed)
	seed := rng.next()
	req := api.SessionRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Seed:          &seed,
		Task: api.TaskSpec{Pattern: api.Pattern{
			Kind: api.PatternTriangular, Min: 1000, Max: 5000,
			Periods: max(frames/samplesPerPeriod, 1), Cycles: 2,
		}},
		SampleMS:  streamSampleMS,
		MaxRateHz: streamRateHz,
	}

	// A set-up starts a daemon and creates the session; the one the
	// measured phase streams is made after the timed ones.
	create := func(d *daemon) (*client.Client, api.Session, error) {
		cl, _ := newClient(d.ts.URL)
		sess, err := cl.CreateSession(context.Background(), req)
		return cl, sess, err
	}
	if err := timeSetup(r, func() (func(), error) {
		d, err := startDaemon(e.nproc)
		if err != nil {
			return nil, err
		}
		if _, _, err := create(d); err != nil {
			d.close()
			return nil, err
		}
		return d.close, nil
	}); err != nil {
		return nil, err
	}
	d, err := startDaemon(e.nproc)
	if err != nil {
		return nil, err
	}
	defer d.close()
	cl, sess, err := create(d)
	if err != nil {
		return nil, err
	}

	type subResult struct {
		frames []frame
		state  api.SessionState
		stamp  api.Session
		err    error
		w      *wire
	}
	subs := make([]subResult, e.nproc)
	heap := watchHeap()
	e.tr.startProfiling()
	c0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(s *subResult) {
			defer wg.Done()
			sc, w := newClient(d.ts.URL)
			s.w = w
			s.state, s.stamp, s.err = sc.StreamSession(context.Background(), sess.ID, func(ev api.Event) {
				s.frames = append(s.frames, frame{seq: ev.Seq, kind: ev.Type, arrived: time.Now(), traced: e.tr.active()})
			})
		}(&subs[i])
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	r.cpuPerPass = cpuSeconds() - c0
	e.tr.stopProfiling()
	heap.finish(r)

	final, err := cl.SessionState(context.Background(), sess.ID)
	if err != nil {
		return nil, err
	}
	gap := time.Second / streamRateHz
	var delivered, snapshots, diffs, resyncs, bytes float64
	live := make([][]frame, len(subs))
	earliest := map[uint64]time.Time{} // seq → earliest arrival at any subscriber
	for i, s := range subs {
		ok := r.checkf(s.err == nil, "subscriber %d: %v", i, s.err) &&
			r.checkf(s.stamp.State == api.SessionDone, "subscriber %d: session ended %q", i, s.stamp.State) &&
			r.checkf(s.state.Equal(final), "subscriber %d: folded state differs from GET /v1/sessions/%s/state", i, sess.ID)
		if !ok {
			r.failed++
		}
		bytes += float64(s.w.bytes.Load())
		var states []frame
		var snaps int
		for _, f := range s.frames {
			switch f.kind {
			case api.EventSnapshot:
				snaps++
			case api.EventDiff:
				diffs++
			default:
				continue
			}
			states = append(states, f)
		}
		snapshots += float64(snaps)
		delivered += float64(len(states))
		r.attempted += int64(len(states))
		resyncs += float64(max(snaps-2, 0)) // the join and terminal snapshots are expected
		// The last two state frames are the unpaced final capture and
		// the terminal snapshot; every diff before them is paced.
		for _, f := range states[:max(len(states)-2, 0)] {
			if f.kind != api.EventDiff {
				continue
			}
			live[i] = append(live[i], f)
			if t, seen := earliest[f.seq]; !seen || f.arrived.Before(t) {
				earliest[f.seq] = f.arrived
			}
		}
	}
	due, misses := pacing(earliest, gap)
	lat := &latencies{}
	for _, frames := range live {
		for _, f := range frames {
			lat.add(float64(f.arrived.Sub(due[f.seq]).Nanoseconds())/1e6, f.traced)
		}
	}
	lat.into(r)
	r.failed += int64(resyncs)
	r.workPerS = delivered / elapsed

	if e.tr != nil {
		r.layers["session.frames"] = delivered
		r.layers["session.snapshots"] = snapshots
		r.layers["session.diffs"] = diffs
		r.layers["session.resyncs"] = resyncs
		if delivered > 0 {
			r.layers["session.bytes_per_frame"] = bytes / delivered
		}
		var late []float64
		for seq, t := range earliest {
			late = append(late, float64(t.Sub(due[seq]).Nanoseconds())/1e6)
		}
		r.layers["session.pacer_late_ms"] = median(late)
		r.layers["session.pacer_misses"] = float64(misses)
		cfg, alg, setups, err := experiment.MaterializeRun(req.RunRequest())
		if err != nil {
			return nil, err
		}
		if err := coreProbe(r, []cell{{cfg, alg, setups}}); err != nil {
			return nil, err
		}
		if err := e.tr.attributeLayers(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// pacing reconstructs when each paced frame was due from the earliest
// arrival of each frame at any subscriber, the closest available
// estimate of when the session published it. The pacer publishes frame
// k at a fixed grid offset plus a baseline, and the baseline only ever
// moves later: when the pacer reaches a frame after its due time, it
// publishes at once and starts the next frames' schedule from there. So
// the baseline at frame k is at most the grid offset of every frame from
// k on, and frame k is due on the baseline in force at the frame before
// it: a frame that made the pacer start a new schedule is late by the
// whole shift, the frames after it are not. misses counts the shifts of
// more than a tenth of a gap.
func pacing(earliest map[uint64]time.Time, gap time.Duration) (due map[uint64]time.Time, misses int) {
	seqs := make([]uint64, 0, len(earliest))
	for q := range earliest {
		seqs = append(seqs, q)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	base := make([]time.Time, len(seqs)) // suffix minimum of the grid offsets
	for i := len(seqs) - 1; i >= 0; i-- {
		base[i] = earliest[seqs[i]].Add(-time.Duration(seqs[i]) * gap)
		if i+1 < len(seqs) && base[i+1].Before(base[i]) {
			base[i] = base[i+1]
		}
	}
	due = make(map[uint64]time.Time, len(seqs))
	for i, q := range seqs {
		b := base[max(i-1, 0)]
		due[q] = b.Add(time.Duration(q) * gap)
		if i > 0 && base[i].Sub(b) > gap/10 {
			misses++
		}
	}
	return due, misses
}
