package main_test

import (
	"bufio"
	"context"
	"encoding/json"
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

// buildDaemon compiles the rmserved binary once per test into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rmserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rmserved: %v\n%s", err, out)
	}
	return bin
}

// startDaemon execs the binary and blocks until it announces its bound
// address, returning the process handle and base URL.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
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
	case base := <-announce:
		if base == "" {
			cmd.Process.Kill()
			t.Fatal("daemon exited without announcing its address")
		}
		return cmd, base
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never announced its listen address")
		return nil, ""
	}
}

// crashDataDir picks the -data-dir for the crash e2e. CI sets
// RMSERVED_E2E_DATADIR to a directory it uploads as an artifact when the
// job fails, so a broken journal is inspectable post-mortem; locally the
// test tempdir is used and cleaned up as usual.
func crashDataDir(t *testing.T) string {
	t.Helper()
	if root := os.Getenv("RMSERVED_E2E_DATADIR"); root != "" {
		dir := filepath.Join(root, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// TestCrashRestart is the crash-safety acceptance e2e: SIGKILL the daemon
// mid-job, restart it on the same -data-dir, and prove the client
// converges — by resubmitting the same request (idempotent by
// fingerprint) — to a result byte-identical to an uninterrupted direct
// run. The journal replay must also resurface the interrupted job itself,
// findable by fingerprint.
func TestCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	bin := buildDaemon(t)
	dataDir := crashDataDir(t)

	cmd, base := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", dataDir)
	defer cmd.Process.Kill()
	cl := client.New(base)
	ctx := context.Background()

	// A job slow enough to still be in flight when the SIGKILL lands.
	seed := uint64(990101)
	req := api.RunRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Seed:          &seed,
		Task:          api.TaskSpec{Pattern: api.Pattern{Kind: api.PatternConstant, Value: 9500, Periods: 400_000}},
	}
	job, err := cl.SubmitRun(ctx, req)
	if err != nil {
		t.Fatalf("submitting the crash-target job: %v", err)
	}
	if job.Fingerprint == "" {
		t.Fatal("accepted job carries no fingerprint")
	}

	// Wait for the job to actually start, then kill the process cold: no
	// drain, no journal finish record — the WAL's last word is "start".
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := cl.Job(ctx, job.ID)
		if err != nil {
			t.Fatalf("polling for running state: %v", err)
		}
		if j.State == api.JobRunning {
			break
		}
		if api.TerminalState(j.State) {
			t.Fatalf("job reached %q before the crash could be injected; enlarge the workload", j.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %q)", j.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is the kill, not a failure

	// Restart on the same data dir. Replay must re-enqueue the
	// interrupted job, findable by its fingerprint.
	cmd2, base2 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", dataDir)
	defer cmd2.Process.Kill()
	cl2 := client.New(base2)

	jobs, err := cl2.Jobs(ctx)
	if err != nil {
		t.Fatalf("listing jobs after restart: %v", err)
	}
	replayed := false
	for _, j := range jobs {
		if j.Fingerprint == job.Fingerprint {
			replayed = true
		}
	}
	if !replayed {
		t.Errorf("restarted daemon lists no job with fingerprint %s; journal replay lost the interrupted job", job.Fingerprint)
	}

	// The client's recovery move: resubmit the identical request. The
	// fingerprint dedupes it against the replayed job's run, so this
	// converges without double work once the replay finishes.
	waitCtx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	served, err := cl2.RunSync(waitCtx, req)
	if err != nil {
		t.Fatalf("resubmitted job after crash-restart: %v", err)
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
	servedJSON, _ := json.Marshal(served)
	directJSON, _ := json.Marshal(direct)
	if string(servedJSON) != string(directJSON) {
		t.Errorf("post-crash result differs from an uninterrupted run:\n got %s\nwant %s", servedJSON, directJSON)
	}

	// Clean exit for the survivor: SIGTERM drains and exits 0.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd2.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("restarted daemon exited non-zero after drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("restarted daemon never exited after SIGTERM")
	}
}
