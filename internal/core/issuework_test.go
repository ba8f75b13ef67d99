package core

import (
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

// engineWork is the deterministic engine work of one run, per 1k retired
// instructions: window entries the issue stages examined, core Ticks, and
// settles (bulk applications of skipped cycles' bookkeeping).
type engineWork struct {
	examined, ticks, settles float64
}

// engineWorkPerKInstr runs a workload on config.Default() (no warm-up, so
// every retired instruction counts) and returns its engine work.
func engineWorkPerKInstr(procs int, stream func(int) trace.Stream) (engineWork, error) {
	cfg := config.Default()
	sys, err := NewSystem(cfg)
	if err != nil {
		return engineWork{}, err
	}
	for p := 0; p < procs; p++ {
		sys.AddProcess(p%cfg.Nodes, stream(p))
	}
	if _, err := sys.Run(RunOptions{Label: "engine-work", MaxCycles: 200_000_000}); err != nil {
		return engineWork{}, err
	}
	var examined, ticks, settles, retired uint64
	for _, c := range sys.cores {
		examined += c.IssueExamined
		ticks += c.Ticks
		settles += c.Settles
		retired += c.Retired
	}
	k := 1000 / float64(retired)
	return engineWork{float64(examined) * k, float64(ticks) * k, float64(settles) * k}, nil
}

// quickWork holds the engine work of DSS and OLTP at the benchmark scale
// (experiments.QuickScale: 8 000 rows per DSS process, one TPC-B
// transaction per OLTP process), simulated once for every test below.
var quickWork struct {
	once     sync.Once
	dss, tpb engineWork
	err      error
}

func quickWorkloads(t *testing.T) (d, o engineWork) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the DSS and OLTP workloads")
	}
	quickWork.once.Do(func() {
		dw := dss.DefaultConfig(config.Default().Nodes)
		dw.RowsPerProcess = 8_000
		if quickWork.dss, quickWork.err = engineWorkPerKInstr(dw.Processes, dss.New(dw).Stream); quickWork.err != nil {
			return
		}
		ow := oltp.DefaultConfig(config.Default().Nodes)
		ow.TransactionsPerProcess = 1
		quickWork.tpb, quickWork.err = engineWorkPerKInstr(ow.Processes, oltp.New(ow).Stream)
	})
	if quickWork.err != nil {
		t.Fatal(quickWork.err)
	}
	return quickWork.dss, quickWork.tpb
}

// bound fails t when got exceeds max.
func bound(t *testing.T, what string, got, max float64) {
	t.Helper()
	if got > max {
		t.Errorf("%s: %.0f per 1k instructions, want <= %.0f", what, got, max)
	} else {
		t.Logf("%s: %.0f per 1k instructions", what, got)
	}
}

// TestIssueExaminedBound pins the issue stage's work, a deterministic
// count with no timing noise. The active-set scheduler examines only
// entries whose operands have arrived, so a fallback to rescanning the
// waiting window fails here even when host timing hides it.
func TestIssueExaminedBound(t *testing.T) {
	d, o := quickWorkloads(t)
	bound(t, "DSS: issue entries examined", d.examined, 4000)
	bound(t, "OLTP: issue entries examined", o.examined, 2789)
}

// TestEngineWorkBound pins how often the run loop ticks and settles a
// core. Ticks rise if a skip is silently disabled; settles rise to one
// per skipped core-cycle (1 429 per 1k instructions on OLTP, 194 on DSS)
// if skipped cycles are accounted eagerly again instead of once per wait.
func TestEngineWorkBound(t *testing.T) {
	d, o := quickWorkloads(t)
	bound(t, "DSS: core ticks", d.ticks, 432)
	bound(t, "OLTP: core ticks", o.ticks, 742)
	bound(t, "DSS: settles", d.settles, 10)
	bound(t, "OLTP: settles", o.settles, 100)
}
