package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

// issueExaminedPerKInstr runs a workload on config.Default() (no warm-up,
// so every retired instruction counts) and returns the window entries the
// issue stages examined per 1k retired instructions.
func issueExaminedPerKInstr(t *testing.T, procs int, stream func(int) trace.Stream) float64 {
	t.Helper()
	cfg := config.Default()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < procs; p++ {
		sys.AddProcess(p%cfg.Nodes, stream(p))
	}
	if _, err := sys.Run(RunOptions{Label: "issue-work", MaxCycles: 200_000_000}); err != nil {
		t.Fatal(err)
	}
	var examined, retired uint64
	for _, c := range sys.cores {
		examined += c.IssueExamined
		retired += c.Retired
	}
	return 1000 * float64(examined) / float64(retired)
}

// TestIssueExaminedBound pins the issue stage's work, a deterministic
// count with no timing noise, on the DSS and OLTP workloads at the
// benchmark scale (experiments.QuickScale: 8 000 rows per DSS process,
// one TPC-B transaction per OLTP process). The active-set scheduler
// examines only entries whose operands have arrived, so a fallback to
// rescanning the waiting window fails here even when host timing hides
// it.
func TestIssueExaminedBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the DSS and OLTP workloads")
	}
	dw := dss.DefaultConfig(config.Default().Nodes)
	dw.RowsPerProcess = 8_000
	d := dss.New(dw)
	if got := issueExaminedPerKInstr(t, dw.Processes, d.Stream); got > 4000 {
		t.Errorf("DSS: issue stage examined %.0f entries per 1k instructions, want <= 4000", got)
	} else {
		t.Logf("DSS: %.0f entries examined per 1k instructions", got)
	}

	ow := oltp.DefaultConfig(config.Default().Nodes)
	ow.TransactionsPerProcess = 1
	o := oltp.New(ow)
	if got := issueExaminedPerKInstr(t, ow.Processes, o.Stream); got > 2789 {
		t.Errorf("OLTP: issue stage examined %.0f entries per 1k instructions, want <= 2789", got)
	} else {
		t.Logf("OLTP: %.0f entries examined per 1k instructions", got)
	}
}
