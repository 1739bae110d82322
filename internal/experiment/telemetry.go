package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func init() {
	register(Experiment{ID: "ext-telemetry", Paper: "observability extension (per-stage view of §5.2 runs)",
		Title: "Per-stage latency quantiles, slack, and forecast accuracy under telemetry",
		Run:   runExtTelemetry})
}

// runExtTelemetry replays the headline triangular run with the telemetry
// recorder attached and tables what the paper's aggregate metrics hide:
// where latency concentrates, how much slack each stage keeps, and how
// accurate the eq. (3)/(5) forecasts are per subtask.
func runExtTelemetry(ctx Context) (Output, error) {
	maxUnits := 24
	if ctx.Quick {
		maxUnits = 8
	}
	stageTable := &Table{
		Title: fmt.Sprintf("ext-telemetry — per-stage latency and forecast accuracy "+
			"(predictive, triangular max %d units)", maxUnits),
		Columns: []string{"stage", "p50 ms", "p95 ms", "p99 ms", "max ms",
			"slack p50", "exec MAPE%", "comm MAPE%"},
		Notes: []string{
			"slack p50 = median of (deadline − latency)/deadline per stage",
			"MAPE = rolling mean absolute percentage error of the eq. (3) exec and eq. (5) comm forecasts",
			"comm MAPE is blank for the final stage (no downstream transfer)",
		},
	}
	setup, err := BenchmarkSetup(TriangularFactory(maxUnits * WorkloadUnit))
	if err != nil {
		return Output{}, err
	}
	// Deliberately not Scheduler.Run: the recorder consumes the run's
	// observation stream, a per-run side effect the tables below read
	// back, so a deduplicated or cache-served run would leave it empty.
	// This stays the one batch experiment that simulates outside the
	// scheduler.
	rec := telemetry.New()
	if _, err := core.RunObservedContext(context.Background(), core.DefaultConfig(), core.Predictive,
		[]core.TaskSetup{setup}, rec); err != nil {
		return Output{}, err
	}
	snap := rec.Snapshot()

	mape := map[int]telemetry.SeriesSnapshot{}
	for _, fs := range snap.Forecast {
		mape[fs.Stage] = fs
	}
	for _, st := range snap.Stages {
		comm := "-"
		if fs, ok := mape[st.Stage]; ok && fs.Comm.Matched > 0 {
			comm = fmt.Sprintf("%.1f", fs.Comm.MAPEPct)
		}
		exec := "-"
		if fs, ok := mape[st.Stage]; ok && fs.Exec.Matched > 0 {
			exec = fmt.Sprintf("%.1f", fs.Exec.MAPEPct)
		}
		l := st.Latency
		stageTable.AddRow(fmt.Sprintf("%s/%d", st.Task, st.Stage),
			l.P50MS, l.P95MS, l.P99MS, l.MaxMS, st.Slack.P50, exec, comm)
	}
	for _, tk := range snap.Tasks {
		l := tk.Latency
		stageTable.AddRow(tk.Task+" e2e", l.P50MS, l.P95MS, l.P99MS, l.MaxMS,
			tk.Slack.P50, "-", "-")
	}

	netTable := &Table{
		Title:   "ext-telemetry — segment delay split (eqs. 4-6) and scheduler queueing",
		Columns: []string{"series", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"},
		Notes: []string{
			"buffer = enqueue→transmission-start wait (D_buf), wire = transmission time (D_trans)",
			"queue wait = job submission→first CPU slice across all processors",
		},
	}
	n := snap.Network
	for _, row := range []struct {
		name string
		h    telemetry.HistSnapshot
	}{
		{"msg buffer delay", n.BufferDelay},
		{"msg wire delay", n.WireDelay},
		{"cpu queue wait", snap.QueueWait},
	} {
		netTable.AddRow(row.name, row.h.Count, row.h.P50MS, row.h.P95MS, row.h.P99MS, row.h.MaxMS)
	}

	return Output{ID: "ext-telemetry", Tables: []*Table{stageTable, netTable}}, nil
}
