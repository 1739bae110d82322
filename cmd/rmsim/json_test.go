package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestJSONOutputPinned runs the real rmsim binary and requires its -json
// document to match, byte for byte, the one committed in testdata for the
// same flags. The file is the wire contract for downstream tooling, so
// any change to its shape or number formatting must be deliberate.
func TestJSONOutputPinned(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building rmsim: %v\n%s", err, out)
	}
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
