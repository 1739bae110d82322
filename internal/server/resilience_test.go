package server_test

// Service-layer resilience: the durable job journal across restarts,
// panic isolation, retry/timeout behavior, backpressure hints, and the
// SSE resume protocol — all driven deterministically through the resil
// fault harness and the sim hook of each test server's own scheduler.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/resil"
	"repro/internal/server"
)

// newFaultServer is newTestServer returning the raw base URL too, for
// tests that must inspect headers or speak SSE by hand.
func newFaultServer(t *testing.T, opts server.Options) (*server.Server, string, *client.Client) {
	t.Helper()
	srv, _ := newTestServer(t, opts)
	// newTestServer registered its own httptest server; expose another
	// handle onto the same Server for raw HTTP.
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL, client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

// seedHook installs a sim hook on srv's scheduler that fires only for
// cfg.Seed == seed, keeping the test's other jobs unaffected.
func seedHook(srv *server.Server, seed uint64, fn func(calls int) error) *int {
	calls := 0
	srv.Scheduler().OnSimulate(func(cfg core.Config, alg core.Algorithm) error {
		if cfg.Seed == seed {
			calls++
			return fn(calls)
		}
		return nil
	})
	return &calls
}

// holdRuns blocks every simulation on srv's scheduler until the
// returned release is called or the test ends, so a job stays running
// for exactly as long as the test needs, however fast the engine is.
func holdRuns(t *testing.T, srv *server.Server) (release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	srv.Scheduler().OnSimulate(func(core.Config, core.Algorithm) error { <-gate; return nil })
	t.Cleanup(release)
	return release
}

// TestJournalWriteFailureAtSubmit: when the submit record cannot be made
// durable, the job is refused with 503 + Retry-After and leaves no trace
// — a restart on the same data dir knows nothing about it.
func TestJournalWriteFailureAtSubmit(t *testing.T) {
	dir := t.TempDir()
	inj := resil.NewInjector(nil).Inject(resil.Rule{
		Op: resil.OpWrite, Path: "journal.wal", Err: fmt.Errorf("injected: journal disk full"),
	})
	_, base, _ := newFaultServer(t, server.Options{DataDir: dir, FS: inj})

	resp, err := http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(mustJSON(t, runReq(0x5e4001, []int{500, 700}))))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), api.CodeJournal) {
		t.Errorf("error body missing code %q: %s", api.CodeJournal, body)
	}
	if ra := resp.Header.Get(api.RetryAfterHeader); ra == "" {
		t.Error("503 carries no Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q is not a positive integer of seconds", ra)
	}

	// No partial record replays: a fresh daemon on the same dir has no
	// jobs, and its queue accounting starts clean (the failed submission
	// released its slot).
	_, cl2 := newTestServer(t, server.Options{DataDir: dir})
	jobs, err := cl2.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("rejected submission left %d journaled jobs: %+v", len(jobs), jobs)
	}
	st, err := cl2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after rejected submission, want 0", st.QueueDepth)
	}
}

// TestRestartReplayConvergesFromCache: a done job replayed on a fresh
// daemon (same data dir, in-process memo dropped — the crash analogue)
// converges to a byte-identical result served from the persistent cache,
// findable by fingerprint.
func TestRestartReplayConvergesFromCache(t *testing.T) {
	dir := t.TempDir()
	_, cl1 := newTestServer(t, server.Options{DataDir: dir})
	req := runReq(0x5e4002, []int{500, 1500, 2500})

	j, err := cl1.SubmitRun(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if j.Fingerprint == "" {
		t.Fatal("accepted run job carries no fingerprint")
	}
	fp := j.Fingerprint
	j, err = cl1.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobDone || j.Run == nil {
		t.Fatalf("job did not finish: %+v", j)
	}
	want := mustJSON(t, *j.Run)

	// "Crash": the old daemon is abandoned, and a new daemon — with its
	// own, empty run memo — replays the same journal.
	_, cl2 := newTestServer(t, server.Options{DataDir: dir})

	jobs, err := cl2.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var replayed *api.Job
	for i := range jobs {
		if jobs[i].Fingerprint == fp {
			replayed = &jobs[i]
		}
	}
	if replayed == nil {
		t.Fatalf("replayed daemon lost the job; journal replay found %+v", jobs)
	}
	got, err := cl2.Wait(context.Background(), replayed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || got.Run == nil {
		t.Fatalf("replayed job did not converge: %+v", got)
	}
	if mustJSON(t, *got.Run) != want {
		t.Errorf("replayed result drifted from the pre-crash result:\n got %s\nwant %s", mustJSON(t, *got.Run), want)
	}
	st, err := cl2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheduler.Simulated != 0 || st.Scheduler.DiskHits != 1 {
		t.Errorf("replay simulated %d cells with %d disk hits; the persistent cache should have served the result",
			st.Scheduler.Simulated, st.Scheduler.DiskHits)
	}
}

// TestRestartRestoresTerminalFailure: a deterministically failed job is
// restored as a terminal record on restart — replay must not launder a
// sticky failure into a re-execution.
func TestRestartRestoresTerminalFailure(t *testing.T) {
	dir := t.TempDir()
	srv1, cl1 := newTestServer(t, server.Options{DataDir: dir})
	calls := seedHook(srv1, 0x5e4003, func(int) error {
		return fmt.Errorf("deterministic model divergence")
	})
	j, err := cl1.SubmitRun(context.Background(), runReq(0x5e4003, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl1.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobFailed || j.Attempts != 1 {
		t.Fatalf("want a failed single-attempt job, got %+v", j)
	}

	_, cl2 := newTestServer(t, server.Options{DataDir: dir})
	got, err := cl2.Job(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobFailed {
		t.Fatalf("restored job state %q, want failed", got.State)
	}
	if !strings.Contains(got.Error, "deterministic model divergence") {
		t.Errorf("restored job lost its error: %q", got.Error)
	}
	st, err := cl2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *calls != 1 || st.Scheduler.Requested != 0 {
		t.Errorf("replay re-executed a deterministic failure: %d sim calls before the restart (want 1), %d runs requested after it (want 0)",
			*calls, st.Scheduler.Requested)
	}
}

// TestCancelledWhileQueuedSurvivesRestart: a job cancelled before it
// ever reached a worker is journaled as cancelled, so a restart on the
// same data dir keeps it cancelled and never runs it.
func TestCancelledWhileQueuedSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, cl1 := newTestServer(t, server.Options{DataDir: dir, Workers: 1})
	holdRuns(t, srv1)
	ctx := context.Background()
	first, err := cl1.SubmitRun(ctx, runReq(0x5e4010, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl1, first.ID, api.JobRunning)
	queued, err := cl1.SubmitRun(ctx, runReq(0x5e4011, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != api.JobQueued {
		t.Fatalf("second job %q behind a held worker, want queued", queued.State)
	}
	// Cancel both: the queued one through the queue's fast path, the
	// running one so that the restart has nothing left to replay.
	for _, id := range []string{queued.ID, first.ID} {
		if j, err := cl1.Cancel(ctx, id); err != nil || j.State != api.JobCancelled {
			t.Fatalf("DELETE %s = %+v, %v; want cancelled", id, j, err)
		}
	}

	_, cl2 := newTestServer(t, server.Options{DataDir: dir})
	got, err := cl2.Job(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobCancelled || got.Attempts != 0 {
		t.Errorf("restored queued-cancelled job = %q after %d attempts, want cancelled after 0", got.State, got.Attempts)
	}
	st, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheduler.Requested != 0 {
		t.Errorf("restarted daemon requested %d runs, want 0: a cancelled job was replayed", st.Scheduler.Requested)
	}
}

// TestWorkerPanicFailsOnlyThatJob: an injected worker panic becomes one
// structured job failure; the daemon keeps serving, sibling jobs finish,
// and the panic counter lands in /v1/metrics.
func TestWorkerPanicFailsOnlyThatJob(t *testing.T) {
	srv, base, cl := newFaultServer(t, server.Options{})
	seedHook(srv, 0x5e4004, func(int) error { panic("injected worker panic") })

	bad, err := cl.SubmitRun(context.Background(), runReq(0x5e4004, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	good, err := cl.SubmitRun(context.Background(), runReq(0x5e4005, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	bad, err = cl.Wait(context.Background(), bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bad.State != api.JobFailed || !strings.Contains(bad.Error, "panic") {
		t.Fatalf("panicking job resolved as %q (%q), want failed with a panic error", bad.State, bad.Error)
	}
	if bad.Attempts != 1 {
		t.Errorf("panic was retried: %d attempts, want 1", bad.Attempts)
	}
	good, err = cl.Wait(context.Background(), good.ID)
	if err != nil {
		t.Fatal(err)
	}
	if good.State != api.JobDone {
		t.Fatalf("sibling job died with the panic: %+v", good)
	}

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "rmserved_job_panics_total 1") {
		t.Errorf("/v1/metrics missing the panic counter:\n%s", text)
	}
}

// TestTransientFailureRetriedToSuccess: a transiently failing job passes
// through the retrying state and succeeds on the second attempt.
func TestTransientFailureRetriedToSuccess(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{
		Retry: resil.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	calls := seedHook(srv, 0x5e4006, func(n int) error {
		if n == 1 {
			return resil.Transientf("injected queue race")
		}
		return nil
	})
	j, err := cl.SubmitRun(context.Background(), runReq(0x5e4006, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobDone {
		t.Fatalf("job resolved as %q (%q), want done after retry", j.State, j.Error)
	}
	if j.Attempts != 2 || *calls != 2 {
		t.Errorf("attempts=%d simCalls=%d, want 2 and 2", j.Attempts, *calls)
	}
}

// TestDeterministicErrorNeverRetried: ordinary (unmarked) errors fail
// fast — one attempt, one execution.
func TestDeterministicErrorNeverRetried(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{
		Retry: resil.Backoff{Base: time.Millisecond, Attempts: 5},
	})
	calls := seedHook(srv, 0x5e4007, func(int) error {
		return fmt.Errorf("deterministic failure")
	})
	j, err := cl.SubmitRun(context.Background(), runReq(0x5e4007, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobFailed {
		t.Fatalf("job resolved as %q, want failed", j.State)
	}
	if j.Attempts != 1 || *calls != 1 {
		t.Errorf("attempts=%d simCalls=%d, want 1 and 1 (no retry of deterministic errors)", j.Attempts, *calls)
	}
}

// TestTransientRetriesExhaust: a job whose transient failure never heals
// consumes exactly Retry.Attempts executions, then fails.
func TestTransientRetriesExhaust(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{
		Retry: resil.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 3},
	})
	calls := seedHook(srv, 0x5e4008, func(int) error {
		return resil.Transientf("injected persistent flake")
	})
	j, err := cl.SubmitRun(context.Background(), runReq(0x5e4008, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobFailed || j.Attempts != 3 || *calls != 3 {
		t.Errorf("state=%q attempts=%d simCalls=%d, want failed/3/3", j.State, j.Attempts, *calls)
	}
}

// TestJobTimeoutFailsWithoutRetry: the per-job deadline converts a
// too-slow attempt into a terminal failure — deadlines lose the same
// race every retry, so one attempt is spent.
func TestJobTimeoutFailsWithoutRetry(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{JobTimeout: 50 * time.Millisecond})
	holdRuns(t, srv)
	j, err := cl.SubmitRun(context.Background(), runReq(0x5e4009, []int{500}))
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobFailed || !strings.Contains(j.Error, "-job-timeout") {
		t.Fatalf("job resolved as %q (%q), want failed with a timeout error", j.State, j.Error)
	}
	if j.Attempts != 1 {
		t.Errorf("timed-out job retried: %d attempts, want 1", j.Attempts)
	}
}

// TestQueueFullRetryAfter: 429 rejections carry a Retry-After derived
// from the queue's drain rate.
func TestQueueFullRetryAfter(t *testing.T) {
	srv, base, cl := newFaultServer(t, server.Options{Workers: 1, QueueDepth: 1})
	holdRuns(t, srv)
	first, err := cl.SubmitRun(context.Background(), runReq(0x5e400a, []int{500}))
	if err != nil {
		t.Fatal(err)
	}
	// The first job must hold the worker before the second can wait in
	// the one-deep queue.
	waitForState(t, cl, first.ID, api.JobRunning)
	second, err := cl.SubmitRun(context.Background(), runReq(0x5e400b, []int{500}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cl.Cancel(context.Background(), first.ID)
		cl.Cancel(context.Background(), second.ID)
	}()

	resp, err := http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(mustJSON(t, runReq(0x5e400c, []int{500}))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get(api.RetryAfterHeader)
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Errorf("Retry-After %q, want an integer in [1,60]", ra)
	}
}

// TestDrainPersistsJournal: a graceful drain journals every accepted
// job's completion — a restart restores them terminal — and /readyz
// flips before results stop being fetchable (it never stops).
func TestDrainPersistsJournal(t *testing.T) {
	dir := t.TempDir()
	srv, base, cl := newFaultServer(t, server.Options{DataDir: dir})
	j, err := cl.SubmitRun(context.Background(), runReq(0x5e400d, []int{500, 900}))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Drain ordering: not ready for new work, still serving results.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d during drain, want 503", resp.StatusCode)
	}
	done, err := cl.Job(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != api.JobDone {
		t.Fatalf("drain abandoned the job: %+v", done)
	}

	// The journal recorded the completion: a restart converges the job
	// from cache without re-simulating.
	_, cl2 := newTestServer(t, server.Options{DataDir: dir})
	got, err := cl2.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || mustJSON(t, *got.Run) != mustJSON(t, *done.Run) {
		t.Errorf("restart after drain drifted: %+v vs %+v", got, done)
	}
	st, err := cl2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheduler.Simulated != 0 {
		t.Errorf("restart re-simulated %d cells after a clean drain", st.Scheduler.Simulated)
	}
}

// sseFrame is one parsed SSE event: its id and decoded payload.
type sseFrame struct {
	id   string
	data string
}

// readFrames consumes SSE frames from r until the stream closes.
func readFrames(r io.Reader) []sseFrame {
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.data != "":
			frames = append(frames, cur)
			cur = sseFrame{}
		}
	}
	return frames
}

// TestSSEResumeSkipsSeenFrames: a reconnect carrying Last-Event-ID
// resumes after the acknowledged frame instead of replaying it — the
// stream for an already-seen running state delivers only the terminal
// transition.
func TestSSEResumeSkipsSeenFrames(t *testing.T) {
	srv, base, cl := newFaultServer(t, server.Options{})
	holdRuns(t, srv)
	j, err := cl.SubmitRun(context.Background(), runReq(0x5e400e, []int{500}))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, j.ID, api.JobRunning)

	// First subscription: observe the running frame and its id.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+j.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var lastID string
	for sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			lastID = id
			break
		}
	}
	cancel()
	resp.Body.Close()
	if lastID == "" {
		t.Fatal("first subscription produced no id line")
	}
	waitForSubscribers(t, srv, 0)

	// Resumed subscription: the running frame (id ≤ Last-Event-ID) must
	// not repeat; cancelling the job, once the resumed subscriber is
	// attached, delivers exactly the terminal frame.
	req2, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+j.ID+"/events", nil)
	req2.Header.Set("Last-Event-ID", lastID)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	waitForSubscribers(t, srv, 1)
	if _, err := cl.Cancel(context.Background(), j.ID); err != nil {
		t.Fatalf("cancel failed: %v", err)
	}
	frames := readFrames(resp2.Body)
	if len(frames) != 1 {
		t.Fatalf("resumed stream delivered %d frames, want exactly the terminal one: %+v", len(frames), frames)
	}
	if !strings.Contains(frames[0].data, api.JobCancelled) {
		t.Errorf("resumed stream's frame is not the terminal snapshot: %s", frames[0].data)
	}
	if prev, _ := strconv.Atoi(lastID); frames[0].id != strconv.Itoa(prev+1) {
		t.Errorf("terminal frame id %s does not follow resumed id %s", frames[0].id, lastID)
	}
}

// TestOversizeBodyRejected: a request body one byte past the 1 MiB
// limit gets 413 request_too_large on every decoding endpoint, and
// nothing is admitted: no job, no session, no journal record.
func TestOversizeBodyRejected(t *testing.T) {
	const limit = 1 << 20
	dir := t.TempDir()
	_, base, cl := newFaultServer(t, server.Options{DataDir: dir})
	// The padding sits inside the JSON value, so the decoder must read
	// every byte to finish it.
	prefix, suffix := `{"pad":"`, `"}`
	body := prefix + strings.Repeat("x", limit+1-len(prefix)-len(suffix)) + suffix
	for _, path := range []string{"/v1/runs", "/v1/sweeps", "/v1/sessions"} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), api.CodeRequestTooLarge) {
			t.Errorf("POST %s with %d bytes = %d %s, want 413 %s", path, len(body), resp.StatusCode, msg, api.CodeRequestTooLarge)
		}
	}
	assertNothingAdmitted(t, base, cl, dir)
}

// TestTrailingBytesRejected: a body holding a valid request followed by
// anything but whitespace gets 400 bad_request on every decoding
// endpoint, and nothing is admitted.
func TestTrailingBytesRejected(t *testing.T) {
	dir := t.TempDir()
	_, base, cl := newFaultServer(t, server.Options{DataDir: dir})
	sweep := api.SweepRequest{SchemaVersion: api.SchemaVersion, Pattern: api.SweepTriangular, Points: []int{1}}
	for _, tc := range []struct {
		path  string
		valid any
	}{
		{"/v1/runs", runReq(0x5e4012, []int{500})},
		{"/v1/sweeps", sweep},
		{"/v1/sessions", sessReq(2)},
	} {
		for _, trailer := range []string{`{"algorithm":"oracle"}`, ` trailing garbage`, `[]`} {
			body := mustJSON(t, tc.valid) + trailer
			resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), api.CodeBadRequest) {
				t.Errorf("POST %s with trailer %q = %d %s, want 400 %s", tc.path, trailer, resp.StatusCode, msg, api.CodeBadRequest)
			}
		}
	}
	assertNothingAdmitted(t, base, cl, dir)
}

// assertNothingAdmitted checks that the daemon holds no job and no
// session and has journaled nothing.
func assertNothingAdmitted(t *testing.T, base string, cl *client.Client, dir string) {
	t.Helper()
	jobs, err := cl.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var sessions []api.Session
	err = json.NewDecoder(resp.Body).Decode(&sessions)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 || len(sessions) != 0 {
		t.Errorf("rejected bodies admitted %d jobs and %d sessions, want none", len(jobs), len(sessions))
	}
	if wal, err := os.ReadFile(filepath.Join(dir, "journal.wal")); err != nil || len(wal) != 0 {
		t.Errorf("journal after rejected bodies: %d bytes (%v), want an empty journal", len(wal), err)
	}
}
