package main_test

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/experiment"
)

// TestSmoke builds the real rmserved binary, starts it on a free port,
// drives it over the public API with internal/client, and proves the
// served result is byte-for-byte what a direct run on a local
// experiment.Scheduler computes for the same cell. It then exercises the SIGTERM drain: a
// job in flight at signal time finishes, its result is fetched during
// the drain, and the process exits 0.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "rmserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rmserved: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints "rmserved listening on http://ADDR/v1" once bound.
	lines := bufio.NewScanner(stdout)
	base := ""
	announce := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if rest, ok := strings.CutPrefix(lines.Text(), "rmserved listening on "); ok {
				announce <- strings.TrimSuffix(rest, "/v1")
				return
			}
		}
		close(announce)
	}()
	select {
	case base = <-announce:
		if base == "" {
			t.Fatal("daemon exited without announcing its address")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never announced its listen address")
	}

	cl := client.New(base)
	ctx := context.Background()

	// A figure 9 cell: the triangular sweep pattern at 4 workload units,
	// explicit seed so the direct run below addresses the same cell.
	seed := uint64(990001)
	req := api.RunRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Seed:          &seed,
		Task: api.TaskSpec{
			Pattern: api.Pattern{Kind: api.PatternTriangular, Min: 500, Max: 2000, Periods: 120, Cycles: 2},
		},
	}
	served, err := cl.RunSync(ctx, req)
	if err != nil {
		t.Fatalf("running fig9 cell through the daemon: %v", err)
	}

	cfg, alg, setups, err := experiment.MaterializeRun(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := experiment.NewScheduler(1).Run(ctx, cfg, alg, setups)
	if err != nil {
		t.Fatal(err)
	}
	direct := experiment.OutcomeToAPI(out)
	if served != direct {
		t.Errorf("served result differs from a direct scheduled run:\n got %+v\nwant %+v", served, direct)
	}

	// Put a slower job in flight, then send SIGTERM mid-run: the drain
	// must finish the job, serve its result, and exit 0.
	dseed := uint64(990002)
	job, err := cl.SubmitRun(ctx, api.RunRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Seed:          &dseed,
		Task:          api.TaskSpec{Pattern: api.Pattern{Kind: api.PatternConstant, Value: 9000, Periods: 200_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	final, err := cl.Wait(waitCtx, job.ID)
	if err != nil {
		t.Fatalf("waiting for the in-flight job during drain: %v", err)
	}
	if final.State != api.JobDone || final.Run == nil {
		t.Errorf("drained job ended %q (error %q), want done with a result", final.State, final.Error)
	}

	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("daemon exited non-zero after drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after SIGTERM drain")
	}
}
