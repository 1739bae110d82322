package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildRmsim builds the rmsim binary into dir.
func buildRmsim(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "rmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building rmsim: %v\n%s", err, out)
	}
	return bin
}

// TestJSONOutputPinned runs the real rmsim binary and requires its -json
// document to match, byte for byte, the one committed in testdata for the
// same flags. The file is the wire contract for downstream tooling, so
// any change to its shape or number formatting must be deliberate.
func TestJSONOutputPinned(t *testing.T) {
	dir := t.TempDir()
	bin := buildRmsim(t, dir)
	got := filepath.Join(dir, "run.json")
	run := exec.Command(bin, "-alg", "predictive", "-pattern", "step", "-max", "8000", "-periods", "12", "-json", got)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("rmsim: %v\n%s", err, out)
	}
	gotBytes, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "step12.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, want) {
		t.Errorf("rmsim -json output (%d bytes) differs from testdata/step12.json (%d bytes)", len(gotBytes), len(want))
	}
}

// TestLaneOutputsIndependentOfParallel runs one lane-partitioned run on
// the serial lane driver and on two workers, with every output file:
// stdout and each file must be byte-identical, since every output is
// rendered from the one merged observation stream.
func TestLaneOutputsIndependentOfParallel(t *testing.T) {
	dir := t.TempDir()
	bin := buildRmsim(t, dir)
	files := []string{"run.json", "trace.csv", "telemetry.json", "chrome.json"}
	outputs := func(parallel string) map[string][]byte {
		wd := filepath.Join(dir, "parallel-"+parallel)
		if err := os.Mkdir(wd, 0o755); err != nil {
			t.Fatal(err)
		}
		run := exec.Command(bin, "-pattern", "step", "-periods", "30", "-lanes", "2", "-parallel", parallel, "-events",
			"-json", files[0], "-trace", files[1], "-telemetry", files[2], "-chrome", files[3])
		run.Dir = wd
		stdout, err := run.Output()
		if err != nil {
			t.Fatalf("rmsim -parallel %s: %v", parallel, err)
		}
		got := map[string][]byte{"stdout": stdout}
		for _, f := range files {
			if got[f], err = os.ReadFile(filepath.Join(wd, f)); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	serial, parallel := outputs("1"), outputs("2")
	for name, want := range serial {
		if len(want) == 0 {
			t.Errorf("%s is empty", name)
		}
		if !bytes.Equal(parallel[name], want) {
			t.Errorf("%s differs between -parallel 1 (%d bytes) and -parallel 2 (%d bytes)", name, len(want), len(parallel[name]))
		}
	}
}
