package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/resil"
	"repro/internal/server"
)

// newTestServer starts an in-process daemon and a client against it.
func newTestServer(t *testing.T, opts server.Options, copts ...client.Option) (*server.Server, *client.Client) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(testWriter{t}, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL, append([]client.Option{client.WithPollInterval(10 * time.Millisecond)}, copts...)...)
	return srv, cl
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// runReq builds a cheap, fully wire-expressible run request: a custom
// workload replay, one simulated period per value.
func runReq(seed uint64, values []int) api.RunRequest {
	return api.RunRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Seed:          &seed,
		Task: api.TaskSpec{
			Pattern: api.Pattern{Kind: api.PatternCustom, Label: "server-test", Values: values},
		},
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// waitForState polls until the job reaches the wanted state (or any
// terminal one).
func waitForState(t *testing.T, cl *client.Client, id, want string) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if api.TerminalState(j.State) {
			t.Fatalf("job %s reached terminal state %q (error %q) before %q", id, j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return api.Job{}
}

// TestSubmitRunMatchesDirectScheduledRun is the acceptance criterion:
// a run submitted over the API must produce byte-for-byte the same
// result as a direct run on an experiment.Scheduler — even when the
// direct run re-simulates from scratch.
func TestSubmitRunMatchesDirectScheduledRun(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	req := runReq(770001, []int{500, 2500, 4500, 2500, 500})

	j, err := cl.SubmitRun(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobDone || j.Run == nil {
		t.Fatalf("job %s ended %q (error %q), want done with a run result", j.ID, j.State, j.Error)
	}

	// Recompute the same cell on a scheduler of its own, so the
	// comparison is against a fresh simulation, not the daemon's memo.
	cfg, alg, setups, err := experiment.MaterializeRun(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := experiment.NewScheduler(1).Run(context.Background(), cfg, alg, setups)
	if err != nil {
		t.Fatal(err)
	}
	direct := experiment.OutcomeToAPI(out)
	if got, want := mustJSON(t, *j.Run), mustJSON(t, direct); got != want {
		t.Errorf("API result differs from a direct scheduled run:\n got %s\nwant %s", got, want)
	}
}

// TestDedupConcurrentIdenticalSubmissions: two clients racing the same
// spec cost one simulation, and /v1/stats shows the dedup.
func TestDedupConcurrentIdenticalSubmissions(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	req := runReq(770002, []int{600, 3000, 6000, 3000, 600})

	before, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]api.Job, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := cl.SubmitRun(context.Background(), req)
			if err == nil {
				j, err = cl.Wait(context.Background(), j.ID)
			}
			results[i], errs[i] = j, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if results[i].State != api.JobDone || results[i].Run == nil {
			t.Fatalf("submission %d ended %q (error %q)", i, results[i].State, results[i].Error)
		}
	}
	if a, b := mustJSON(t, *results[0].Run), mustJSON(t, *results[1].Run); a != b {
		t.Errorf("identical submissions returned different results:\n%s\n%s", a, b)
	}

	after, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sim := after.Scheduler.Simulated - before.Scheduler.Simulated
	shared := (after.Scheduler.Deduped - before.Scheduler.Deduped) +
		(after.Scheduler.MemoryHits - before.Scheduler.MemoryHits)
	if sim != 1 {
		t.Errorf("two identical submissions simulated %d cells, want exactly 1", sim)
	}
	if shared != 1 {
		t.Errorf("dedup not visible in /v1/stats: deduped+memory_hits moved by %d, want 1", shared)
	}
}

// TestCancelMidRun: DELETE on a running job reports the cancelled
// terminal state at once, and the scheduler abandons the run's cell. A
// sim hook holds the worker inside the run until after the DELETE, so
// the outcome does not depend on how long the simulation takes.
func TestCancelMidRun(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{})
	release := holdRuns(t, srv)
	j, err := cl.SubmitRun(context.Background(), runReq(770003, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, j.ID, api.JobRunning)

	j, err = cl.Cancel(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobCancelled {
		t.Fatalf("after DELETE, job state %q, want %q", j.State, api.JobCancelled)
	}
	release()

	// The scheduler counts the abandoned cell once its released worker
	// sees the cancelled context; poll for the counter to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if after.Scheduler.Cancelled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Error("scheduler cancelled counter never moved after DELETE")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cancelling again is a conflict: the job is already terminal.
	if _, err := cl.Cancel(context.Background(), j.ID); err == nil {
		t.Error("second DELETE succeeded, want conflict")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeConflict {
			t.Errorf("second DELETE error %v, want code %q", err, api.CodeConflict)
		}
	}
}

// TestQueueFullReturns429: with one worker and a one-deep queue, a third
// submission is rejected with the queue_full envelope. The sim hook holds
// the worker until the test ends, so the outcome does not depend on how
// long a run takes, and retries are off so the first response is the one
// asserted.
func TestQueueFullReturns429(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{Workers: 1, QueueDepth: 1},
		client.WithRetries(resil.Backoff{Attempts: 1}))
	ctx := context.Background()
	holdRuns(t, srv)

	running, err := cl.SubmitRun(ctx, runReq(770004, []int{500}))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, running.ID, api.JobRunning)

	queued, err := cl.SubmitRun(ctx, runReq(770005, []int{500}))
	if err != nil {
		t.Fatal(err)
	}

	_, err = cl.SubmitRun(ctx, runReq(770006, []int{500}))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != api.CodeQueueFull {
		t.Fatalf("third submission error %v, want 429 %s", err, api.CodeQueueFull)
	}

	// The queued job must cancel promptly without ever holding a worker.
	if j, err := cl.Cancel(ctx, queued.ID); err != nil || j.State != api.JobCancelled {
		t.Fatalf("cancelling queued job: state %q err %v", j.State, err)
	}
}

// TestDrain: admissions close, in-flight jobs finish, and results stay
// fetchable after the drain completes.
func TestDrain(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{})
	ctx := context.Background()

	j, err := cl.SubmitRun(ctx, runReq(770007, []int{700, 1400, 2100}))
	if err != nil {
		t.Fatal(err)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The accepted job finished during the drain, and its result is still
	// fetchable.
	got, err := cl.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || got.Run == nil {
		t.Errorf("after drain, job state %q (error %q), want done with a result", got.State, got.Error)
	}

	// New submissions are rejected with the draining envelope.
	_, err = cl.SubmitRun(ctx, runReq(770008, []int{500}))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != api.CodeDraining {
		t.Errorf("submission during drain: %v, want 503 %s", err, api.CodeDraining)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Error("/v1/stats does not report draining")
	}
}

// TestSSEEventSequence: the events stream yields queued/running frames
// in order and terminates with done.
func TestSSEEventSequence(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	j, err := cl.SubmitRun(context.Background(), runReq(770009, []int{800, 1600, 2400, 1600}))
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	last, err := cl.Events(context.Background(), j.ID, func(j api.Job) {
		states = append(states, j.State)
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.State != api.JobDone || last.Run == nil {
		t.Fatalf("stream ended %q (error %q), want done with a result", last.State, last.Error)
	}
	rank := map[string]int{api.JobQueued: 0, api.JobRunning: 1, api.JobDone: 2}
	for i := 1; i < len(states); i++ {
		if rank[states[i]] < rank[states[i-1]] {
			t.Errorf("states regressed: %v", states)
			break
		}
	}
	if states[len(states)-1] != api.JobDone {
		t.Errorf("final frame %q, want done (all frames: %v)", states[len(states)-1], states)
	}
}

// TestSSEClosedJobStreamServesTerminalFrame: every join of a finished
// job's stream — fresh, at its head, or from an earlier frame — gets
// exactly the terminal frame, so a stream always ends on one.
func TestSSEClosedJobStreamServesTerminalFrame(t *testing.T) {
	_, cl, base := newTestServerURL(t, server.Options{})
	j, err := cl.SubmitRun(context.Background(), runReq(770010, []int{500}))
	if err != nil {
		t.Fatal(err)
	}
	if j, err = cl.Wait(context.Background(), j.ID); err != nil || j.State != api.JobDone {
		t.Fatalf("wait: %+v, %v", j, err)
	}
	var terminalID string
	for _, lastID := range []string{"", "head", "1"} {
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+j.ID+"/events", nil)
		if lastID == "head" {
			lastID = terminalID
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		frames := readFrames(resp.Body)
		resp.Body.Close()
		if len(frames) != 1 {
			t.Fatalf("join from %q: %d frames, want the terminal one alone: %+v", lastID, len(frames), frames)
		}
		ev, err := api.ParseSSE(api.EventJob, []byte(frames[0].data))
		if err != nil || ev.Job.State != api.JobDone {
			t.Fatalf("join from %q: frame %s (%v), want the done frame", lastID, frames[0].data, err)
		}
		if terminalID == "" {
			terminalID = frames[0].id
		} else if frames[0].id != terminalID {
			t.Errorf("join from %q: frame id %s, want %s", lastID, frames[0].id, terminalID)
		}
	}
}

// TestSubmitValidationAggregates: a multiply-broken request fails
// synchronously with every field error in one envelope.
func TestSubmitValidationAggregates(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	req := api.RunRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     "oracle",
		Task:          api.TaskSpec{Pattern: api.Pattern{Kind: "sawtooth"}, Models: "vibes"},
	}
	_, err := cl.SubmitRun(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("got %v, want 400 %s", err, api.CodeBadRequest)
	}
	for _, frag := range []string{"oracle", "sawtooth", "vibes"} {
		if !strings.Contains(apiErr.Message, frag) {
			t.Errorf("aggregated message should mention %q; got: %s", frag, apiErr.Message)
		}
	}
}

// TestJobNotFound: unknown ids get the 404 envelope.
func TestJobNotFound(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	_, err := cl.Job(context.Background(), "job-999999")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != api.CodeNotFound {
		t.Fatalf("got %v, want 404 %s", err, api.CodeNotFound)
	}
}

// TestSweepJob: a sweep submitted over the API matches the direct
// Scheduler.Sweep result exactly.
func TestSweepJob(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	req := api.SweepRequest{
		SchemaVersion: api.SchemaVersion,
		Pattern:       api.SweepTriangular,
		Points:        []int{1, 2},
	}
	j, err := cl.SubmitSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobDone || j.Sweep == nil {
		t.Fatalf("sweep ended %q (error %q)", j.State, j.Error)
	}
	direct, err := experiment.NewScheduler(0).Sweep(context.Background(), req.Points, experiment.TriangularFactory, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, *j.Sweep), mustJSON(t, experiment.SweepToAPI(direct)); got != want {
		t.Errorf("API sweep differs from direct Scheduler.Sweep:\n got %s\nwant %s", got, want)
	}
}

// TestServersDoNotShareRuns: each Server owns its run scheduler, so two
// Servers in one process share neither the run memo nor a disk cache —
// B, built without a cache, must not serve from A's — and each
// /v1/stats counts only its own runs.
func TestServersDoNotShareRuns(t *testing.T) {
	_, clA := newTestServer(t, server.Options{DataDir: t.TempDir()})
	_, clB := newTestServer(t, server.Options{})
	req := runReq(770010, []int{500, 1500, 2500})
	for _, cl := range []*client.Client{clA, clB} {
		j, err := cl.SubmitRun(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = cl.Wait(context.Background(), j.ID); err != nil || j.State != api.JobDone {
			t.Fatalf("job %s ended %q (error %q, %v), want done", j.ID, j.State, j.Error, err)
		}
	}
	for name, cl := range map[string]*client.Client{"A": clA, "B": clB} {
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := (api.SchedulerStats{Requested: 1, Simulated: 1}); st.Scheduler != want {
			t.Errorf("server %s scheduler stats %+v, want %+v", name, st.Scheduler, want)
		}
	}
}
