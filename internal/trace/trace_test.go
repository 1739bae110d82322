package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
)

func TestAdaptationEventString(t *testing.T) {
	e := AdaptationEvent{At: sim.Second, Period: 1, Task: "T", Stage: 2,
		Kind: ActionReplicate, Procs: []int{3}}
	if s := e.String(); !strings.Contains(s, "replicate") || !strings.Contains(s, "procs=[3]") {
		t.Errorf("event string %q", s)
	}
}

func TestWriteRecordsCSV(t *testing.T) {
	records := []*task.PeriodRecord{{Period: 3, Items: 42,
		ReleasedAt: 3 * sim.Second, CompletedAt: 3*sim.Second + 400*sim.Millisecond,
		Deadline: 3*sim.Second + 990*sim.Millisecond}}
	var b strings.Builder
	if err := WriteRecordsCSV(&b, records); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "period,items,") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "3,42,3000.000,3400.000,400.000,false") {
		t.Errorf("row wrong: %q", out)
	}
}
