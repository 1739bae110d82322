package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// noSleep is a Sleeper that returns immediately, recording each delay.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

// TestDecodeErrorEnvelope: a proper envelope surfaces its code and
// message; a non-envelope body (proxy, panic page) degrades gracefully.
func TestDecodeErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/enveloped":
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":{"code":"not_found","message":"unknown job"}}`))
		default:
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte("<html>upstream sad</html>"))
		}
	}))
	defer ts.Close()
	cl := New(ts.URL)
	cl.sleep = noSleep(new([]time.Duration)) // the 502 case is retryable; don't wall-sleep

	_, err := cl.Job(context.Background(), "enveloped")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound || apiErr.Status != 404 {
		t.Errorf("enveloped error decoded as %v", err)
	}

	_, err = cl.Job(context.Background(), "garbage")
	if !errors.As(err, &apiErr) || apiErr.Status != 502 || apiErr.Code != api.CodeInternal {
		t.Errorf("non-envelope error decoded as %v", err)
	}
}

// TestSubmitDefaultsSchemaVersion: a zero SchemaVersion is filled in so
// hand-built requests don't trip validation.
func TestSubmitDefaultsSchemaVersion(t *testing.T) {
	var got api.RunRequest
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Error(err)
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"schema_version":2,"id":"job-1","kind":"run","state":"queued","created_ms":1}`))
	}))
	defer ts.Close()
	if _, err := New(ts.URL).SubmitRun(context.Background(), api.RunRequest{Algorithm: api.AlgPredictive}); err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != api.SchemaVersion {
		t.Errorf("submitted schema_version %d, want %d", got.SchemaVersion, api.SchemaVersion)
	}
}

// TestRetryableClassification pins which failures the client retries.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), false},
		{&APIError{Status: 400, Code: api.CodeBadRequest}, false},
		{&APIError{Status: 404, Code: api.CodeNotFound}, false},
		{&APIError{Status: 409, Code: api.CodeConflict}, false},
		{&APIError{Status: 429, Code: api.CodeQueueFull}, true},
		{&APIError{Status: 500, Code: api.CodeInternal}, true},
		{&APIError{Status: 503, Code: api.CodeJournal}, true},
		{&APIError{Status: 503, Code: api.CodeDraining}, false}, // an explicit refusal
		{io.ErrUnexpectedEOF, true},                             // torn stream
		{fmt.Errorf("dial tcp: connection refused"), true},      // transport
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestRetryHonorsRetryAfter: 429s are retried and the server's
// Retry-After hint overrides the backoff schedule.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set(api.RetryAfterHeader, "3")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"queue_full","message":"full"}}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"schema_version":2,"id":"job-1","kind":"run","state":"queued","created_ms":1}`))
	}))
	defer ts.Close()

	var delays []time.Duration
	cl := New(ts.URL)
	cl.sleep = noSleep(&delays)
	j, err := cl.SubmitRun(context.Background(), api.RunRequest{Algorithm: api.AlgPredictive})
	if err != nil {
		t.Fatalf("submit after backpressure: %v", err)
	}
	if j.ID != "job-1" || hits.Load() != 3 {
		t.Errorf("job %q after %d requests, want job-1 after 3", j.ID, hits.Load())
	}
	if len(delays) != 2 || delays[0] != 3*time.Second || delays[1] != 3*time.Second {
		t.Errorf("slept %v, want two 3s waits from Retry-After", delays)
	}
}

// TestNoRetryOnDraining: a drain refusal is terminal — one request, no
// backoff.
func TestNoRetryOnDraining(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"draining","message":"server is draining"}}`))
	}))
	defer ts.Close()

	var delays []time.Duration
	cl := New(ts.URL)
	cl.sleep = noSleep(&delays)
	_, err := cl.SubmitRun(context.Background(), api.RunRequest{Algorithm: api.AlgPredictive})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != api.CodeDraining {
		t.Fatalf("want the draining refusal back, got %v", err)
	}
	if hits.Load() != 1 || len(delays) != 0 {
		t.Errorf("%d requests and %d sleeps for a drain refusal, want 1 and 0", hits.Load(), len(delays))
	}
}

// TestRetryTransportError: a connection the server kills without a
// response is retried and the next attempt carries the full body again.
func TestRetryTransportError(t *testing.T) {
	var hits atomic.Int32
	var lastBody atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		lastBody.Store(string(body))
		if hits.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("response writer cannot hijack")
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // torn connection: client sees EOF, no status
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"schema_version":2,"id":"job-1","kind":"run","state":"queued","created_ms":1}`))
	}))
	defer ts.Close()

	var delays []time.Duration
	cl := New(ts.URL)
	cl.sleep = noSleep(&delays)
	if _, err := cl.SubmitRun(context.Background(), api.RunRequest{Algorithm: api.AlgPredictive}); err != nil {
		t.Fatalf("submit across a torn connection: %v", err)
	}
	if hits.Load() != 2 || len(delays) != 1 {
		t.Errorf("%d requests, %d sleeps; want 2 and 1", hits.Load(), len(delays))
	}
	var sent api.RunRequest
	if err := json.Unmarshal([]byte(lastBody.Load().(string)), &sent); err != nil || sent.Algorithm != api.AlgPredictive {
		t.Errorf("retried request body drifted: %q (%v)", lastBody.Load(), err)
	}
}

// TestEventsReconnectWithLastEventID: a dropped SSE stream reconnects
// carrying Last-Event-ID, and the resumed stream's frames are delivered
// exactly once.
func TestEventsReconnectWithLastEventID(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		// The first stream dies without a terminal frame.
		ev := api.Event{Type: api.EventJob, Seq: 1, Job: &api.Job{ID: "job-1", Kind: "run", State: api.JobRunning}}
		if conns.Add(1) == 1 {
			if r.Header.Get("Last-Event-ID") != "" {
				t.Errorf("first connect sent Last-Event-ID %q", r.Header.Get("Last-Event-ID"))
			}
		} else {
			if got := r.Header.Get("Last-Event-ID"); got != "1" {
				t.Errorf("reconnect sent Last-Event-ID %q, want 1", got)
			}
			ev.Seq, ev.Job.State = 2, api.JobDone
		}
		ev.WriteSSE(w)
	}))
	defer ts.Close()

	var delays []time.Duration
	cl := New(ts.URL)
	cl.sleep = noSleep(&delays)
	var states []string
	j, err := cl.Events(context.Background(), "job-1", func(j api.Job) { states = append(states, j.State) })
	if err != nil {
		t.Fatalf("events across a dropped stream: %v", err)
	}
	if j.State != api.JobDone {
		t.Errorf("final snapshot %q, want done", j.State)
	}
	if len(states) != 2 || states[0] != api.JobRunning || states[1] != api.JobDone {
		t.Errorf("delivered states %v, want exactly [running done]", states)
	}
	if conns.Load() != 2 || len(delays) != 1 {
		t.Errorf("%d connections, %d sleeps; want 2 and 1", conns.Load(), len(delays))
	}
}
