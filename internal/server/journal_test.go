package server

// In-package unit tests for the WAL primitives, replay of a retired
// schema version, and the Retry-After estimator; the HTTP-level crash
// and fault suites live in resilience_test.go (package server_test).

import (
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/resil"
)

func testRecords() []journalRecord {
	run := api.RunRequest{SchemaVersion: api.SchemaVersion, Algorithm: api.AlgPredictive}
	return []journalRecord{
		{Type: "submit", Job: "job-1", MS: 100, Kind: "run", Run: &run, Fingerprint: "abcd"},
		{Type: "start", Job: "job-1", MS: 110},
		{Type: "finish", Job: "job-1", MS: 150, State: api.JobDone, Attempts: 1},
		{Type: "submit", Job: "job-2", MS: 200, Kind: "sweep", Sweep: &api.SweepRequest{SchemaVersion: api.SchemaVersion, Pattern: api.SweepTriangular}},
		{Type: "start", Job: "job-2", MS: 210},
	}
}

// TestJournalRoundTrip: records appended to a fresh journal replay back
// exactly, and the next daemon's job IDs continue after the replayed
// ones.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl, recs, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := testRecords()
	for _, rec := range want {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	_, got, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Job != want[i].Job || got[i].MS != want[i].MS || got[i].State != want[i].State {
			t.Errorf("record %d drifted: got %+v want %+v", i, got[i], want[i])
		}
	}

	jobs, maxSeq := foldRecords(got)
	if maxSeq != 2 {
		t.Errorf("maxSeq = %d, want 2", maxSeq)
	}
	if len(jobs) != 2 {
		t.Fatalf("folded %d jobs, want 2", len(jobs))
	}
	if jobs[0].state != api.JobDone || jobs[0].fingerprint != "abcd" || jobs[0].attempts != 1 {
		t.Errorf("job-1 folded wrong: %+v", jobs[0])
	}
	if jobs[1].state != "" || jobs[1].kind != "sweep" || jobs[1].startedMS != 210 {
		t.Errorf("job-2 folded wrong: %+v", jobs[1])
	}
}

// TestJournalTornTailTruncated: a crash mid-append leaves a torn final
// record; replay keeps the intact prefix, truncates the tail, and the
// journal keeps accepting appends.
func TestJournalTornTailTruncated(t *testing.T) {
	for name, tail := range map[string]string{
		"unterminated": `0075bcd1 {"type":"submit","job":"jo`,
		"bad_crc":      "deadbeef {\"type\":\"submit\",\"job\":\"job-9\",\"ms\":1}\n",
		"bad_json":     "890552f9 {\"type\":\"submit\",\n",
		"short_line":   "00\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			jl, _, err := openJournal(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := testRecords()[:2]
			for _, rec := range want {
				if err := jl.append(rec); err != nil {
					t.Fatal(err)
				}
			}
			jl.Close()

			path := filepath.Join(dir, journalFile)
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail)
			f.Close()

			jl2, recs, err := openJournal(dir, nil)
			if err != nil {
				t.Fatalf("replay with torn tail: %v", err)
			}
			if len(recs) != len(want) {
				t.Fatalf("replayed %d records, want the %d intact ones", len(recs), len(want))
			}
			// The tail is gone from disk, and the log accepts new records
			// at the truncation point.
			if err := jl2.append(testRecords()[2]); err != nil {
				t.Fatal(err)
			}
			jl2.Close()
			_, recs, err = openJournal(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 {
				t.Fatalf("after truncate+append, replayed %d records, want 3", len(recs))
			}
		})
	}
}

// TestJournalTornWriteInjected: the same torn-tail recovery, but with
// the tear produced by the fault injector exactly as a crash mid-write
// would — a prefix of the record durable, the rest lost.
func TestJournalTornWriteInjected(t *testing.T) {
	dir := t.TempDir()
	inj := resil.NewInjector(nil)
	jl, _, err := openJournal(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.append(testRecords()[0]); err != nil {
		t.Fatal(err)
	}
	inj.Inject(resil.Rule{Op: resil.OpWrite, Path: journalFile, Count: 1, TornBytes: 17, Err: os.ErrClosed})
	if err := jl.append(testRecords()[1]); err == nil {
		t.Fatal("torn append reported success")
	}
	jl.Close()

	_, recs, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != "submit" {
		t.Fatalf("want exactly the intact first record back, got %+v", recs)
	}
}

// TestReplayFailsV1Request: a job journaled with a schema_version 1
// request and still queued at the crash replays to a terminal failure
// that names the unsupported version. It never reaches the simulator,
// and a second restart restores the failure instead of re-running it.
func TestReplayFailsV1Request(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0x5e4018)
	run := api.RunRequest{
		SchemaVersion: 1, Algorithm: api.AlgPredictive, Seed: &seed,
		Task: api.TaskSpec{Pattern: api.Pattern{Kind: api.PatternCustom, Values: []int{500, 700}}},
	}
	if err := jl.append(journalRecord{Type: "submit", Job: "job-1", MS: 100, Kind: "run", Run: &run, Fingerprint: "v1"}); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	for restart := 1; restart <= 2; restart++ {
		s, err := New(Options{DataDir: dir, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		s.mu.Lock()
		j := s.jobs["job-1"]
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("restart %d: journaled job not restored", restart)
		}
		got := j.snapshot()
		if got.State != api.JobFailed || got.Attempts != 1 || !strings.Contains(got.Error, "schema_version 1 unsupported") {
			t.Errorf("restart %d: got state %q, %d attempts, error %q; want one failed attempt naming schema_version 1", restart, got.State, got.Attempts, got.Error)
		}
		if n := s.sched.Stats().Requested; n != 0 {
			t.Errorf("restart %d: v1 request reached the scheduler %d times", restart, n)
		}
	}
}

// TestRetryAfterSeconds pins the drain-rate estimate: backlog times
// per-job duration over the worker pool, clamped to [1s, 60s], with a
// 2s floor before any duration signal exists.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		queued, workers int
		avg             time.Duration
		want            int
	}{
		{0, 4, 0, 2},                     // no signal yet
		{10, 4, 0, 2},                    // still no signal
		{0, 4, 2 * time.Second, 1},       // near-empty queue drains fast
		{7, 4, 2 * time.Second, 4},       // 8 jobs × 2s / 4 workers
		{100, 1, 30 * time.Second, 60},   // clamped high
		{0, 8, 10 * time.Millisecond, 1}, // clamped low
		{5, 0, time.Second, 6},           // workers ≤0 treated as 1
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.workers, c.avg); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d, %v) = %d, want %d", c.queued, c.workers, c.avg, got, c.want)
		}
	}
}
