package main

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/server"
)

// TestRemoteRunnerRoundTrip is -remote in one process: fig9 -quick,
// scheduled locally with every cell delegated through remoteRunner to an
// rmserved that simulates on a scheduler of its own, renders
// byte-identical to a plain local run, and nothing simulates locally.
func TestRemoteRunnerRoundTrip(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := server.New(server.Options{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	e, err := experiment.ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	want, err := fingerprint(e, experiment.Context{Scheduler: experiment.NewScheduler(0), Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	local := experiment.NewScheduler(0)
	cl := client.New(ts.URL, client.WithPollInterval(5*time.Millisecond))
	local.SetRemoteRunner(remoteRunner(cl, log))
	got, err := fingerprint(e, experiment.Context{Scheduler: local, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fig9 through the daemon differs from the local render:\n got %s\nwant %s", got, want)
	}

	const cells = 10 // 5 quick points × 2 algorithms
	if st := local.Stats(); st.Requested != cells || st.Remote != cells || st.Simulated != 0 {
		t.Errorf("local scheduler %+v, want %d requested, all remote, none simulated", st, cells)
	}
	daemon, err := client.New(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := (api.SchedulerStats{Requested: cells, Simulated: cells}); daemon.Scheduler != want {
		t.Errorf("daemon scheduler %+v, want %+v", daemon.Scheduler, want)
	}
}
