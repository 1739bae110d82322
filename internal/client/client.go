// Package client is the Go client for the rmserved daemon's v1 API. It
// depends only on the api wire schema, the obs correlation layer, and
// the resil resilience vocabulary — a client binary never *runs* the
// simulation engine — and mirrors the endpoint surface one-to-one:
// SubmitRun/SubmitSweep, Job/Jobs/Cancel, Events (SSE), Stats, plus the
// Wait and RunSync conveniences that block until a job settles.
//
// Every request retries transparently on transport errors, 429
// backpressure, and 5xx responses (except an explicit drain refusal),
// honoring the server's Retry-After hint; resubmitting is safe because
// run submissions are idempotent by fingerprint. SSE subscriptions
// reconnect on a dropped stream and resume with Last-Event-ID, so no
// state transition is delivered twice.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/resil"
)

// Client talks to one rmserved base URL (e.g. "http://127.0.0.1:8080").
type Client struct {
	base string
	hc   *http.Client
	// PollInterval paces the polling fallback in Wait when the SSE stream
	// is unavailable. Zero means 100ms.
	PollInterval time.Duration
	// Retry shapes the backoff between retried requests and SSE
	// reconnects. The zero value uses the resil defaults (3 attempts,
	// 100ms base doubling to a 5s cap).
	Retry resil.Backoff
	// Logger, when set, logs every request at debug level with its
	// correlation ID, status, and wall-clock duration.
	Logger *slog.Logger

	// sleep paces retries; nil means a real context-aware sleep. Tests
	// substitute a recording fake.
	sleep resil.Sleeper
}

// Option customizes a Client at construction. Options compose left to
// right: client.New(base, client.WithHTTPClient(hc), client.WithRetries(b)).
type Option func(*Client)

// WithHTTPClient supplies the http.Client behind every request
// (timeouts, transports, test doubles). nil keeps the default.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetries shapes the backoff between retried requests and SSE
// reconnects.
func WithRetries(b resil.Backoff) Option {
	return func(c *Client) { c.Retry = b }
}

// WithPollInterval paces the polling fallback in Wait.
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) { c.PollInterval = d }
}

// New builds a client for the given base URL. With no options it uses
// http.DefaultClient and the resil retry defaults.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response decoded from the server's error
// envelope.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's backoff hint from the Retry-After
	// header, when one was sent (429 backpressure, 503 journal trouble).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rmserved: %s (http %d, code %s)", e.Message, e.Status, e.Code)
}

// Retryable reports whether err is worth retrying against the same
// daemon: transport-level failures (connection refused mid-restart, a
// torn stream) and 429/5xx responses — except an explicit drain
// refusal, which is the daemon saying it will not take the work, ever.
// Context cancellations are never retryable.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Code == api.CodeDraining {
			return false
		}
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	// Not an API response at all: the network or the stream broke.
	return true
}

// requestID picks the correlation ID for one outgoing request: the one
// already in ctx (a caller correlating several calls) or a fresh one.
// The ID travels as X-Request-Id, and the daemon logs it on its side, so
// one grep joins client and server views of the same request.
func requestID(ctx context.Context) string {
	if id := obs.RequestID(ctx); id != "" {
		return id
	}
	return obs.NewRequestID()
}

// logRequest emits the client-side completion line when a logger is set.
func (c *Client) logRequest(id, method, path string, status int, start time.Time, err error) {
	if c.Logger == nil {
		return
	}
	attrs := []any{"req", id, "method", method, "path", path, "dur_ms", time.Since(start).Milliseconds()}
	if status != 0 {
		attrs = append(attrs, "status", status)
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	c.Logger.Debug("rmserved request", attrs...)
}

// sleeper resolves the retry pacer.
func (c *Client) sleeper() resil.Sleeper {
	if c.sleep != nil {
		return c.sleep
	}
	return resil.SleepCtx
}

// do performs one JSON request/response exchange, retrying retryable
// failures with backoff. The body is marshalled once and replayed from
// a fresh reader on each attempt.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	sleep := c.sleeper()
	var err error
	for attempt := 1; ; attempt++ {
		err = c.doOnce(ctx, method, path, data, out)
		if err == nil || !Retryable(err) || attempt >= c.Retry.MaxAttempts() {
			return err
		}
		delay := c.Retry.Delay(attempt)
		// The server knows its own drain rate better than our schedule.
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			delay = ae.RetryAfter
		}
		if c.Logger != nil {
			c.Logger.Debug("rmserved request retrying", "method", method, "path", path, "attempt", attempt, "delay_ms", delay.Milliseconds(), "error", err.Error())
		}
		if serr := sleep(ctx, delay); serr != nil {
			return err // ctx died mid-backoff; the request's error is the story
		}
	}
}

// doOnce is a single request/response exchange.
func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, out any) error {
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := requestID(ctx)
	req.Header.Set(obs.RequestIDHeader, id)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.logRequest(id, method, path, 0, start, err)
		return err
	}
	defer resp.Body.Close()
	c.logRequest(id, method, path, resp.StatusCode, start, nil)
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx response into an *APIError, tolerating
// non-envelope bodies (proxies, panics) and capturing any Retry-After
// hint.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	ae := &APIError{Status: resp.StatusCode, Code: api.CodeInternal, Message: strings.TrimSpace(string(data))}
	var env api.ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		ae.Code, ae.Message = env.Error.Code, env.Error.Message
	}
	if secs, err := strconv.Atoi(resp.Header.Get(api.RetryAfterHeader)); err == nil && secs > 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

// SubmitRun submits one simulation and returns the accepted job.
func (c *Client) SubmitRun(ctx context.Context, req api.RunRequest) (api.Job, error) {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = api.SchemaVersion
	}
	var j api.Job
	err := c.do(ctx, http.MethodPost, "/v1/runs", req, &j)
	return j, err
}

// SubmitSweep submits one figure sweep and returns the accepted job.
func (c *Client) SubmitSweep(ctx context.Context, req api.SweepRequest) (api.Job, error) {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = api.SchemaVersion
	}
	var j api.Job
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &j)
	return j, err
}

// Job fetches one job's current snapshot.
func (c *Client) Job(ctx context.Context, id string) (api.Job, error) {
	var j api.Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// Jobs lists every job the daemon knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]api.Job, error) {
	var page api.JobPage
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &page)
	return page.Jobs, err
}

// JobsPage fetches one page of the job list: at most limit jobs in
// submission order, starting after the `after` cursor (empty for the
// first page). Page through with the returned NextAfter until it comes
// back empty.
func (c *Client) JobsPage(ctx context.Context, limit int, after string) (api.JobPage, error) {
	if limit <= 0 {
		return api.JobPage{}, fmt.Errorf("client: page limit must be positive, got %d", limit)
	}
	path := "/v1/jobs?limit=" + strconv.Itoa(limit)
	if after != "" {
		path += "&after=" + url.QueryEscape(after)
	}
	var page api.JobPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// Cancel cancels a queued or running job and returns its terminal
// snapshot.
func (c *Client) Cancel(ctx context.Context, id string) (api.Job, error) {
	var j api.Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// Stats fetches the daemon's scheduler, queue, and telemetry counters.
func (c *Client) Stats(ctx context.Context) (api.Stats, error) {
	var st api.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Events subscribes to a job's SSE stream, invoking fn for every
// snapshot until the job reaches a terminal state or ctx is cancelled.
// A dropped stream reconnects and resumes (see follow), so no snapshot
// is delivered twice. Returns the last snapshot observed.
func (c *Client) Events(ctx context.Context, id string, fn func(api.Job)) (api.Job, error) {
	var last api.Job
	err := c.follow(ctx, "/v1/jobs/"+id+"/events", func(ev api.Event) {
		if ev.Type != api.EventJob {
			return
		}
		last = *ev.Job
		if fn != nil {
			fn(last)
		}
	})
	return last, err
}

// Wait blocks until the job reaches a terminal state, preferring the SSE
// stream and falling back to polling if streaming fails mid-flight.
func (c *Client) Wait(ctx context.Context, id string) (api.Job, error) {
	if j, err := c.Events(ctx, id, nil); err == nil {
		return j, nil
	} else if ctx.Err() != nil {
		return j, ctx.Err()
	}
	interval := c.PollInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return api.Job{}, err
		}
		if api.TerminalState(j.State) {
			return j, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return j, ctx.Err()
		}
	}
}

// RunSync submits a run and blocks for its result — the remote analogue
// of experiment.Scheduler.Run. A failed or cancelled job is returned as
// an error.
func (c *Client) RunSync(ctx context.Context, req api.RunRequest) (api.RunResult, error) {
	j, err := c.SubmitRun(ctx, req)
	if err != nil {
		return api.RunResult{}, err
	}
	id := j.ID
	j, err = c.Wait(ctx, id)
	if err != nil {
		// Best effort: don't leave the job running server-side when the
		// caller gave up on it.
		if ctx.Err() != nil {
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, _ = c.Cancel(cctx, id)
			cancel()
		}
		return api.RunResult{}, err
	}
	switch j.State {
	case api.JobDone:
		if j.Run == nil {
			return api.RunResult{}, fmt.Errorf("client: job %s done without a run result", j.ID)
		}
		return *j.Run, nil
	case api.JobCancelled:
		return api.RunResult{}, fmt.Errorf("client: job %s cancelled: %s", j.ID, j.Error)
	default:
		return api.RunResult{}, fmt.Errorf("client: job %s failed: %s", j.ID, j.Error)
	}
}
