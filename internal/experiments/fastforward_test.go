package experiments

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// The fast-forward equivalence tests are the tentpole guarantee of the
// idle-cycle skip: a run with fast-forward enabled must be bit-identical
// to the same run ticking every cycle — the full Report (every float64 of
// the breakdown, every histogram bucket), the telemetry JSONL byte
// stream, and the exported trace. Each test runs both arms and compares.
// The arms cover both workloads, every latch policy, fault injection,
// tracing and mid-run checkpoint captures.

// ffScale is small enough to keep the suite fast but long enough to cross
// several telemetry intervals, context switches, lock contention, and the
// warm-up reset in both workloads.
func ffScale() Scale {
	return Scale{
		OLTPTransactions: 1,
		OLTPWarmupTx:     1,
		DSSRows:          2_000,
		MaxCycles:        200_000_000,
	}
}

type nopWriteCloser struct{ *bytes.Buffer }

func (nopWriteCloser) Close() error { return nil }

// ffCase selects one equivalence scenario: the workload, its latch
// policy and fault profile, and the observers attached to the run.
type ffCase struct {
	oltp         bool
	latch        config.LatchPolicy
	faults       config.FaultConfig
	traced       bool
	checkpointed bool // periodic mid-run captures (each one a settle point)
}

// ffCheckpointInterval is deliberately not a multiple of the 50 000-cycle
// telemetry interval, so most captures settle cores on their own rather
// than right after a sample did.
const ffCheckpointInterval = 170_000

// ffResult is one arm's output: the report, the telemetry JSONL bytes,
// (when traced) the exported Chrome trace bytes and aggregates, and (when
// checkpointed) the last captured machine state.
type ffResult struct {
	rep      *stats.Report
	jsonl    []byte
	trace    []byte
	analysis *tracing.Analysis
	ckpt     *core.MachineState
}

// ffRun is one arm of an equivalence test: run the case with the given
// fast-forward setting.
func ffRun(t *testing.T, c ffCase, disableFF bool) ffResult {
	t.Helper()
	sc := ffScale()
	sc.DisableFastForward = disableFF
	sc.Faults = c.faults
	sc.LatchPolicy = c.latch

	var jsonl bytes.Buffer
	sc.Telemetry = func(label string) *telemetry.Pipeline {
		pipe := telemetry.New(50_000)
		pipe.Attach(telemetry.NewJSONLSink(nopWriteCloser{&jsonl}), nil)
		return pipe
	}
	var trc *tracing.Tracer
	if c.traced {
		trc = tracing.New(tracing.Options{})
		sc.Tracer = trc
	}
	var ckPath string
	if c.checkpointed {
		ckPath = filepath.Join(t.TempDir(), "ff.ckpt")
		sc.Checkpoint = func(label string) *core.CheckpointOptions {
			return &core.CheckpointOptions{Path: ckPath, Interval: ffCheckpointInterval}
		}
	}

	cfg := config.Default()
	var rep *stats.Report
	var err error
	if c.oltp {
		rep, err = RunOLTP(cfg, sc, "ff-equivalence", 0)
	} else {
		rep, err = RunDSS(cfg, sc, "ff-equivalence")
	}
	if err != nil {
		t.Fatal(err)
	}
	res := ffResult{rep: rep, jsonl: jsonl.Bytes()}
	if c.traced {
		var buf bytes.Buffer
		if err := trc.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		res.trace = buf.Bytes()
		res.analysis = trc.Analysis()
	}
	if c.checkpointed {
		if res.ckpt, err = core.LoadCheckpoint(ckPath, ""); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// testFFEquivalence runs both arms of c and requires identical output.
func testFFEquivalence(t *testing.T, c ffCase) {
	t.Helper()
	on := ffRun(t, c, false)
	off := ffRun(t, c, true)
	assertIdentical(t, on, off)
	if on.rep.Instructions == 0 {
		t.Fatal("degenerate run: no instructions retired")
	}
	if c.traced {
		if onT, offT := on.analysis.Totals(), off.analysis.Totals(); onT != offT {
			t.Errorf("trace aggregate totals differ:\nff-on  %v\nff-off %v", onT, offT)
		}
	}
}

func assertIdentical(t *testing.T, on, off ffResult) {
	t.Helper()
	if on.rep.Cycles != off.rep.Cycles {
		t.Errorf("cycles differ: ff-on %d, ff-off %d", on.rep.Cycles, off.rep.Cycles)
	}
	if on.rep.Instructions != off.rep.Instructions {
		t.Errorf("instructions differ: ff-on %d, ff-off %d", on.rep.Instructions, off.rep.Instructions)
	}
	if on.rep.Breakdown != off.rep.Breakdown {
		t.Errorf("breakdown differs (must be bitwise equal):\nff-on  %v\nff-off %v", on.rep.Breakdown, off.rep.Breakdown)
	}
	if !reflect.DeepEqual(on.rep, off.rep) {
		t.Errorf("reports differ:\nff-on  %+v\nff-off %+v", on.rep, off.rep)
	}
	if !bytes.Equal(on.jsonl, off.jsonl) {
		t.Errorf("telemetry JSONL series differ (%d vs %d bytes)", len(on.jsonl), len(off.jsonl))
	}
	if !bytes.Equal(on.trace, off.trace) {
		t.Errorf("exported traces differ (%d vs %d bytes)", len(on.trace), len(off.trace))
	}
	if !reflect.DeepEqual(on.ckpt, off.ckpt) {
		t.Errorf("last captured machine states differ")
	}
}

func TestFastForwardEquivalenceOLTP(t *testing.T) {
	testFFEquivalence(t, ffCase{oltp: true})
}

func TestFastForwardEquivalenceDSS(t *testing.T) {
	testFFEquivalence(t, ffCase{})
}

// The latch policies change what a stalled core waits on: hints adds
// flushes behind releases, htm elides the latch and aborts on
// invalidations (a settle point of its own).
func TestFastForwardEquivalenceOLTPHints(t *testing.T) {
	testFFEquivalence(t, ffCase{oltp: true, latch: config.LatchHints})
}

func TestFastForwardEquivalenceOLTPHTM(t *testing.T) {
	testFFEquivalence(t, ffCase{oltp: true, latch: config.LatchHTM})
}

func TestFastForwardEquivalenceDSSHints(t *testing.T) {
	testFFEquivalence(t, ffCase{latch: config.LatchHints})
}

func TestFastForwardEquivalenceDSSHTM(t *testing.T) {
	testFFEquivalence(t, ffCase{latch: config.LatchHTM})
}

// TestFastForwardEquivalenceFaults injects the deterministic timing-fault
// profile: NACK/retry storms and stretched latencies reshape exactly the
// idle spans fast-forward skips.
func TestFastForwardEquivalenceFaults(t *testing.T) {
	testFFEquivalence(t, ffCase{oltp: true, faults: config.FaultConfig{
		Enabled:        true,
		Seed:           42,
		MeshDelayProb:  0.05,
		MeshDelayMax:   40,
		NACKProb:       0.02,
		NACKMaxRetries: 4,
		NACKBackoff:    20,
		MemStallProb:   0.05,
		MemStallCycles: 60,
	}})
}

// TestFastForwardEquivalenceTraced runs with the event tracer attached:
// the bulk-applied stall spans and lock-contention windows must yield a
// byte-identical export and identical aggregates.
func TestFastForwardEquivalenceTraced(t *testing.T) {
	testFFEquivalence(t, ffCase{oltp: true, traced: true})
}

// TestFastForwardEquivalenceCheckpointed captures mid-run checkpoints in
// both arms. A capture settles every core's skipped cycles and caps the
// quiet spans, so the fast-forwarded run is split at each boundary and
// must still match ticking every cycle — and so must the last captured
// machine state.
func TestFastForwardEquivalenceCheckpointed(t *testing.T) {
	testFFEquivalence(t, ffCase{checkpointed: true})
}
