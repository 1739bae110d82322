package server_test

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/server"
)

// newTestServerURL is newTestServer plus the raw base URL, for tests
// that need to speak HTTP below the client's surface.
func newTestServerURL(t *testing.T, opts server.Options) (*server.Server, *client.Client, string) {
	t.Helper()
	srv, cl := newTestServer(t, opts)
	// newTestServer built the client against an httptest server; recover
	// its base from a fresh one so raw requests hit the same Server.
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, cl, ts.URL
}

// sessReq builds a session request over a constant-rate pattern.
func sessReq(periods int) api.SessionRequest {
	seed := uint64(7)
	return api.SessionRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Seed:          &seed,
		Task: api.TaskSpec{
			Pattern: api.Pattern{Kind: api.PatternConstant, Value: 500, Periods: periods},
		},
	}
}

// waitForSession polls until the session reaches a terminal state.
func waitForSession(t *testing.T, cl *client.Client, id string) api.Session {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s, err := cl.Session(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if api.TerminalSessionState(s.State) {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never terminated", id)
	return api.Session{}
}

// rawStream opens the stream endpoint directly and folds frames until
// either maxStateFrames state-bearing frames arrived (then kills the
// connection) or a terminal stamp arrived. It returns the folded state,
// the last event id, and whether the stream reached a terminal frame.
func rawStream(t *testing.T, base, id, lastEventID string, st *api.SessionState, maxStateFrames int) (string, bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/sessions/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	var frameID, name string
	var data []byte
	states := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			frameID = strings.TrimPrefix(line, "id: ")
			continue
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			continue
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
			continue
		case line != "":
			continue
		}
		if data == nil {
			continue
		}
		ev, perr := api.ParseSSE(name, data)
		if perr != nil {
			t.Fatalf("decoding frame %s %q: %v", name, data, perr)
		}
		name, data = "", nil
		switch ev.Type {
		case api.EventSnapshot:
			*st = ev.Snapshot.Clone()
		case api.EventDiff:
			st.Apply(*ev.Diff)
		default:
			continue // heartbeat: no id, no state
		}
		if frameID != "" {
			lastEventID = frameID
		}
		states++
		if ev.Session != nil && api.TerminalSessionState(ev.Session.State) {
			return lastEventID, true
		}
		if states >= maxStateFrames {
			return lastEventID, false // simulate a dropped connection
		}
	}
	t.Fatalf("stream for %s ended without a terminal frame (scan err %v)", id, sc.Err())
	return lastEventID, false
}

// TestSessionEndToEndSmoke is the e2e acceptance path: start one paced
// session, attach 50 subscribers at staggered times, kill one raw
// subscriber mid-stream and resume it via Last-Event-ID, and require
// every fold — early joiner, late joiner, and the killed-and-resumed
// one — to land exactly on the session's final state.
func TestSessionEndToEndSmoke(t *testing.T) {
	_, cl, base := newTestServerURL(t, server.Options{})

	req := sessReq(300)
	req.SampleMS = 500
	req.MaxRateHz = 300
	sess, err := cl.CreateSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sess.State != api.SessionRunning || sess.SampleMS != 500 {
		t.Fatalf("created session %+v", sess)
	}

	const subscribers = 50
	var wg sync.WaitGroup
	folds := make([]api.SessionState, subscribers)
	stamps := make([]api.Session, subscribers)
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 4 * time.Millisecond) // join before, during, and after the stream
			st, stamp, err := cl.StreamSession(context.Background(), sess.ID, nil)
			if err != nil {
				t.Errorf("subscriber %d: %v", i, err)
				return
			}
			folds[i], stamps[i] = st, stamp
		}(i)
	}

	// The killed subscriber: fold three state frames, drop the
	// connection, then resume from Last-Event-ID until terminal.
	var killed api.SessionState
	lastID, done := rawStream(t, base, sess.ID, "", &killed, 3)
	if done {
		t.Fatalf("session finished before the kill point (last id %s)", lastID)
	}
	if _, done = rawStream(t, base, sess.ID, lastID, &killed, 1<<30); !done {
		t.Fatal("resumed stream did not reach a terminal frame")
	}

	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	final, err := cl.SessionState(context.Background(), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Equal(final) {
		t.Errorf("killed-and-resumed fold diverged from final state:\n got %+v\nwant %+v", killed, final)
	}
	for i := range folds {
		if !folds[i].Equal(final) {
			t.Errorf("subscriber %d fold diverged from final state", i)
		}
		if stamps[i].State != api.SessionDone {
			t.Errorf("subscriber %d terminal stamp %q, want done", i, stamps[i].State)
		}
	}
	if final.Metrics.Completed != 300 {
		t.Errorf("final state completed %d periods, want 300", final.Metrics.Completed)
	}

	info := waitForSession(t, cl, sess.ID)
	if info.State != api.SessionDone || info.FinishedMS == 0 {
		t.Errorf("terminal session view %+v", info)
	}
	list, err := cl.Sessions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sess.ID {
		t.Errorf("session list %+v", list)
	}
}

// TestSessionLifecycleAndErrors pins the control-surface contract:
// pause/resume round-trip, conflicts on terminal sessions, 404s, and
// stats exposure.
func TestSessionLifecycleAndErrors(t *testing.T) {
	_, cl, base := newTestServerURL(t, server.Options{})

	// A paced session stays alive long enough to pause.
	req := sessReq(5000)
	req.MaxRateHz = 100
	sess, err := cl.CreateSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first published state: a session stopped before its
	// first sample has no state to keep readable.
	var first api.SessionState
	rawStream(t, base, sess.ID, "", &first, 1)
	if s, err := cl.PauseSession(context.Background(), sess.ID); err != nil || s.State != api.SessionPaused {
		t.Fatalf("pause: %+v, %v", s, err)
	}
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions == nil || stats.Sessions.Paused != 1 {
		t.Errorf("stats.Sessions %+v, want one paused", stats.Sessions)
	}
	if s, err := cl.ResumeSession(context.Background(), sess.ID); err != nil || s.State != api.SessionRunning {
		t.Fatalf("resume: %+v, %v", s, err)
	}
	if s, err := cl.StopSession(context.Background(), sess.ID); err != nil || s.State != api.SessionStopped {
		t.Fatalf("stop: %+v, %v", s, err)
	}

	// Terminal sessions conflict on every control verb.
	wantConflict := func(what string, err error) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != api.CodeConflict {
			t.Errorf("%s on stopped session: %v, want 409 %s", what, err, api.CodeConflict)
		}
	}
	_, err = cl.PauseSession(context.Background(), sess.ID)
	wantConflict("pause", err)
	_, err = cl.ResumeSession(context.Background(), sess.ID)
	wantConflict("resume", err)
	_, err = cl.StopSession(context.Background(), sess.ID)
	wantConflict("stop", err)

	// The final state stays readable after the session ends.
	if _, err := cl.SessionState(context.Background(), sess.ID); err != nil {
		t.Errorf("state after stop: %v", err)
	}

	// Unknown sessions are 404s.
	_, err = cl.Session(context.Background(), "sess-999")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != api.CodeNotFound {
		t.Errorf("unknown session: %v, want 404 %s", err, api.CodeNotFound)
	}

	// Invalid session requests are 400s.
	bad := sessReq(10)
	bad.SampleMS = -1
	if _, err := cl.CreateSession(context.Background(), bad); err == nil {
		t.Error("negative sample_ms accepted")
	}
}

// TestSessionStoppedBeforeFirstSample: a session that ends before its
// first sample still ends its stream on a terminal frame — the empty
// state, stamped stopped — both for a subscriber attached while the run
// is held at its first sample and for one joining after the stop, each
// in a single connection.
func TestSessionStoppedBeforeFirstSample(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{})
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			conns.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	scl := client.New(ts.URL)
	ctx := context.Background()

	// Hold the run at its first sample: a pause that returns with Seq 0
	// landed before the first frame was numbered, so none will be
	// until Resume or Stop. The first sample sits 50,000 simulated
	// periods in, so the pause all but always wins; when it does not,
	// stop that session and take another.
	req := sessReq(100_000)
	req.SampleMS = 50_000_000
	var sess api.Session
	for attempt := 1; sess.ID == ""; attempt++ {
		created, err := cl.CreateSession(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		paused, err := cl.PauseSession(ctx, created.ID)
		switch {
		case err == nil && paused.Seq == 0:
			sess = paused
		case attempt == 10:
			t.Fatalf("no session held before its first sample in %d attempts (last %+v, %v)", attempt, paused, err)
		default:
			_, _ = cl.StopSession(ctx, created.ID)
		}
	}

	type result struct {
		st    api.SessionState
		stamp api.Session
		err   error
	}
	stream := func() result {
		var r result
		r.st, r.stamp, r.err = scl.StreamSession(ctx, sess.ID, nil)
		return r
	}
	live := make(chan result, 1)
	go func() { live <- stream() }()
	waitForSubscribers(t, srv, 1)
	if s, err := cl.StopSession(ctx, sess.ID); err != nil || s.State != api.SessionStopped || s.Seq != 1 {
		t.Fatalf("stop: %+v, %v; want stopped at seq 1", s, err)
	}
	check := func(who string, r result, wantConns int32) {
		t.Helper()
		if r.err != nil {
			t.Fatalf("%s subscriber: %v", who, r.err)
		}
		if r.stamp.State != api.SessionStopped || r.stamp.Seq != 1 || r.stamp.SimMS != 0 {
			t.Errorf("%s subscriber's terminal stamp %+v, want stopped at seq 1", who, r.stamp)
		}
		if !r.st.Equal(api.SessionState{}) {
			t.Errorf("%s subscriber folded %+v, want the empty state", who, r.st)
		}
		if got := conns.Load(); got != wantConns {
			t.Errorf("after the %s subscriber: %d stream connections, want %d (no retry)", who, got, wantConns)
		}
	}
	select {
	case r := <-live:
		check("attached", r, 1)
	case <-time.After(30 * time.Second):
		t.Fatal("attached subscriber never saw the terminal frame")
	}
	check("late", stream(), 2)
}

// TestDrainStopsSessions proves Drain's session half: live sessions are
// stopped (not abandoned) and new ones are refused with 503 draining.
func TestDrainStopsSessions(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{})

	req := sessReq(1_000_000) // paced: would run ~3 hours if not drained
	req.MaxRateHz = 100
	sess, err := cl.CreateSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s, err := cl.Session(context.Background(), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.State != api.SessionStopped {
		t.Errorf("session state after drain %q, want stopped", s.State)
	}

	_, err = cl.CreateSession(context.Background(), sessReq(10))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeDraining {
		t.Errorf("create during drain: %v, want 503 %s", err, api.CodeDraining)
	}
}

// TestSessionCap pins the backpressure contract: live sessions beyond
// MaxSessions are refused with 429 queue_full.
func TestSessionCap(t *testing.T) {
	_, cl := newTestServer(t, server.Options{MaxSessions: 1})

	req := sessReq(5000)
	req.MaxRateHz = 100
	if _, err := cl.CreateSession(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	_, err := cl.CreateSession(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != api.CodeQueueFull {
		t.Errorf("second session: %v, want 429 %s", err, api.CodeQueueFull)
	}
}

// TestJobsPagination pins the paged listing against the legacy bare
// array: same order, cursor chaining, and 400s on bad parameters.
func TestJobsPagination(t *testing.T) {
	_, cl, base := newTestServerURL(t, server.Options{Workers: 1})

	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		j, err := cl.SubmitRun(context.Background(), runReq(uint64(i+1), []int{500, 600}))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		if _, err := cl.Wait(context.Background(), j.ID); err != nil {
			t.Fatal(err)
		}
	}

	// The parameterless call lists every job in one page.
	all, err := cl.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("unpaged list has %d jobs, want 5", len(all))
	}

	// Page through with limit 2 and chain cursors.
	var paged []string
	after := ""
	pages := 0
	for {
		page, err := cl.JobsPage(context.Background(), 2, after)
		if err != nil {
			t.Fatal(err)
		}
		if page.SchemaVersion != api.SchemaVersion {
			t.Fatalf("page schema_version %d", page.SchemaVersion)
		}
		for _, j := range page.Jobs {
			paged = append(paged, j.ID)
		}
		pages++
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	if pages != 3 || len(paged) != 5 {
		t.Fatalf("paged through %d pages, %d jobs; want 3 pages, 5 jobs", pages, len(paged))
	}
	for i := range all {
		if paged[i] != all[i].ID {
			t.Errorf("page order diverges at %d: %s vs %s", i, paged[i], all[i].ID)
		}
	}

	// An over-large limit returns the whole tail in one page.
	page, err := cl.JobsPage(context.Background(), 100, ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 || page.NextAfter != "" {
		t.Errorf("tail page %+v, want 2 jobs and no cursor", page)
	}

	// Bad parameters are 400s.
	for _, q := range []string{"?limit=0", "?limit=nope", "?limit=2&after=job-does-not-exist"} {
		resp, err := http.Get(base + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s → %d, want 400", q, resp.StatusCode)
		}
	}
}
