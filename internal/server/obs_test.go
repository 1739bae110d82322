package server_test

// Wall-clock observability coverage: liveness/readiness endpoints,
// request correlation, the /v1/metrics exposition, pprof gating, and the
// slow-SSE-subscriber isolation contract.

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// newRawServer starts an in-process daemon exposed over real HTTP and
// returns it with its base URL (for endpoints the Go client does not
// wrap) plus a client for the ones it does.
func newRawServer(t *testing.T, opts server.Options) (*server.Server, string, *client.Client) {
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
	cl := client.New(ts.URL)
	cl.PollInterval = 10 * time.Millisecond
	return srv, ts.URL, cl
}

// get fetches one plain endpoint and returns status and trimmed body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(body))
}

// TestHealthzReadyzDrain pins the probe semantics: /healthz stays 200
// for the life of the listener (a draining daemon is finishing accepted
// work, not dead), while /readyz flips to 503 the moment drain begins —
// strictly before in-flight jobs finish.
func TestHealthzReadyzDrain(t *testing.T) {
	srv, base, cl := newRawServer(t, server.Options{})
	holdRuns(t, srv)

	for _, path := range []string{"/healthz", "/v1/healthz"} {
		if code, body := get(t, base+path); code != http.StatusOK || body != "ok" {
			t.Fatalf("%s = %d %q, want 200 ok", path, code, body)
		}
	}
	if code, body := get(t, base+"/readyz"); code != http.StatusOK || body != "ready" {
		t.Fatalf("/readyz = %d %q, want 200 ready", code, body)
	}

	// Park a job that will still be running when drain starts.
	j, err := cl.SubmitRun(context.Background(), runReq(0xb5_0001, []int{500}))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, j.ID, api.JobRunning)

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()

	// Drain must flip readiness while the job is still in flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := get(t, base+"/readyz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after drain began")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got, err := cl.Job(context.Background(), j.ID); err != nil || got.State != api.JobRunning {
		t.Fatalf("job state while draining = %v/%v, want still running (readyz must flip before jobs settle)", got.State, err)
	}
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		if code, body := get(t, base+path); code != http.StatusOK || body != "ok" {
			t.Fatalf("%s = %d %q during drain, want 200 ok (liveness is not readiness)", path, code, body)
		}
	}

	// Release the drain and confirm it settles.
	if _, err := cl.Cancel(context.Background(), j.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRequestIDCorrelation pins the correlation contract: the daemon
// echoes a caller-supplied X-Request-Id and mints one otherwise.
func TestRequestIDCorrelation(t *testing.T) {
	_, base, _ := newRawServer(t, server.Options{})

	req, _ := http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
	req.Header.Set(obs.RequestIDHeader, "r-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "r-test-42" {
		t.Fatalf("echoed request id = %q, want caller's r-test-42", got)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); !strings.HasPrefix(got, "r-") {
		t.Fatalf("minted request id = %q, want r-… form", got)
	}
}

// TestMetricsExposition drives one job through the daemon and asserts
// the wall-clock metrics — request histograms, job counters, scheduler
// cell timings — appear in the Prometheus exposition and /v1/stats.
func TestMetricsExposition(t *testing.T) {
	srv, base, cl := newRawServer(t, server.Options{})

	j, err := cl.SubmitRun(context.Background(), runReq(0xb5_0002, []int{500, 900, 1300}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(context.Background(), j.ID); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, base+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("/v1/metrics = %d", code)
	}
	for _, want := range []string{
		`obs_http_requests_total{route="POST /v1/runs",status="2xx"}`,
		`obs_http_request_duration_seconds_count{route="POST /v1/runs",status="2xx"}`,
		`rmserved_jobs_submitted_total{kind="run"} 1`,
		`obs_sched_cells_finished_total{outcome="simulated"} 1`,
		"obs_sched_cell_wait_seconds_count 1",
		"obs_queue_depth 0",
		"obs_jobs_in_flight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}

	vals := srv.Metrics().Values()
	if vals["obs_sched_cells_queued_total"] != 1 {
		t.Errorf("obs_sched_cells_queued_total = %v, want 1", vals["obs_sched_cells_queued_total"])
	}
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Telemetry[`rmserved_jobs_finished_total{state="done"}`] != 1 {
		t.Errorf("stats telemetry = %v, want finished done=1", stats.Telemetry)
	}
}

// TestPprofGating pins that profiling endpoints exist only behind the
// opt-in flag.
func TestPprofGating(t *testing.T) {
	_, base, _ := newRawServer(t, server.Options{})
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without EnablePprof = %d, want 404", code)
	}

	_, base, _ = newRawServer(t, server.Options{EnablePprof: true})
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ with EnablePprof = %d, want 200 with profile index", code)
	}
	if code, _ := get(t, base+"/debug/pprof/heap?debug=1"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap = %d, want 200", code)
	}
}

// waitForSubscribers polls until srv's obs_sse_subscribers gauge reads
// n: every stream handler it counts is attached to its hub.
func waitForSubscribers(t *testing.T, srv *server.Server, n float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Values()["obs_sse_subscribers"] != n {
		if time.Now().After(deadline) {
			t.Fatalf("obs_sse_subscribers = %v, never reached %v", srv.Metrics().Values()["obs_sse_subscribers"], n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSSESlowSubscriberDoesNotBlock pins the backpressure contract of
// the event hub: a subscriber that never reads its stream must not delay
// job completion, job cancellation, or a healthy subscriber's terminal
// frame.
func TestSSESlowSubscriberDoesNotBlock(t *testing.T) {
	srv, base, cl := newRawServer(t, server.Options{})
	holdRuns(t, srv)

	j, err := cl.SubmitRun(context.Background(), runReq(0xb5_0003, []int{500}))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, j.ID, api.JobRunning)

	// The stalled subscriber: open the stream, read only the response
	// header, then never touch the body again.
	stalled, err := http.Get(base + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close()
	if stalled.StatusCode != http.StatusOK {
		t.Fatalf("stalled subscribe = %d", stalled.StatusCode)
	}

	// The subscriber gauge should see it connected.
	waitForSubscribers(t, srv, 1)

	// A healthy subscriber alongside it.
	healthy := make(chan api.Job, 1)
	go func() {
		last, err := cl.Events(context.Background(), j.ID, nil)
		if err != nil {
			t.Errorf("healthy subscriber: %v", err)
		}
		healthy <- last
	}()

	// Cancellation waits for the job's terminal transition server-side;
	// if a stalled reader could block completion, this call would hang
	// past the deadline instead of returning the cancelled snapshot.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := cl.Cancel(ctx, j.ID)
	if err != nil {
		t.Fatalf("cancel with stalled subscriber attached: %v", err)
	}
	if done.State != api.JobCancelled {
		t.Fatalf("cancelled job state = %q", done.State)
	}

	select {
	case last := <-healthy:
		if last.State != api.JobCancelled {
			t.Fatalf("healthy subscriber's terminal frame = %q, want cancelled", last.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("healthy subscriber never saw the terminal frame")
	}
}

// TestSSEStreamStillServesTerminalFrame guards the non-stalled path of
// the same hub: a reader that consumes the stream sees every state
// through terminal EOF even while another stream is stalled.
func TestSSEStreamStillServesTerminalFrame(t *testing.T) {
	_, base, cl := newRawServer(t, server.Options{})
	j, err := cl.SubmitRun(context.Background(), runReq(0xb5_0004, []int{500, 700}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			frame, err := api.ParseSSE(api.EventJob, []byte(data))
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, frame.Job.State)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != api.JobDone {
		t.Fatalf("streamed states = %v, want trailing %q", states, api.JobDone)
	}
}
