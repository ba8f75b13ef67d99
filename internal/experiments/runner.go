// Package experiments reproduces every table and figure of the paper's
// evaluation. Each FigNN function runs the simulated machine (internal/core)
// over the OLTP and/or DSS workloads under the figure's configurations and
// returns the same rows/series the paper plots, normalized to the figure's
// leftmost bar. The cmd/sweep tool and the repository benchmarks call these.
package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

// Scale controls how much work each run simulates. The paper simulated
// ~200M instructions; these defaults simulate a few million, which is
// enough for the shapes (who wins, by what factor) while staying fast.
type Scale struct {
	OLTPTransactions int // per server process
	OLTPWarmupTx     int // excluded from statistics
	DSSRows          int // per query server
	MaxCycles        uint64

	// Context, when non-nil, is threaded into every run so callers
	// (cmd/sweep) can time-bound or cancel a whole sweep. A nil Context
	// leaves cancellation disabled.
	Context context.Context

	// WatchdogWindow overrides the forward-progress watchdog window in
	// cycles; 0 keeps core.DefaultWatchdogWindow.
	WatchdogWindow uint64
	// DisableWatchdog turns the forward-progress watchdog off entirely.
	DisableWatchdog bool

	// Faults, when Enabled, overlays the deterministic fault injector
	// profile onto every machine configuration the experiments build
	// (chaos sweeps). Points built from a faulted scale are marked
	// retryable: the orchestration layer re-runs fault-induced failures
	// with this profile cleared.
	Faults config.FaultConfig

	// LatchPolicy, when not LatchPlain, overlays the lock-path strategy
	// (paper-style prefetch+flush latch hints, or HTM latch elision) onto
	// every machine configuration the experiments build — the sweep axis
	// for comparing synchronization treatments across the whole evaluation.
	// The zero value leaves each experiment's own configuration untouched,
	// so default sweeps are byte-identical to the pre-elision simulator.
	LatchPolicy config.LatchPolicy

	// Telemetry, when non-nil, is called once per run with the run's
	// label and returns the interval-telemetry pipeline to attach (nil =
	// no telemetry for that run). The runner registers workload probes
	// (OLTP txns_committed, DSS rows_scanned), drives sampling through
	// core.Run, and closes the pipeline when the run finishes — so a
	// sweep gets one series file per run point.
	Telemetry func(label string) *telemetry.Pipeline

	// Checkpoint, when non-nil, is called once per run with the run's
	// label and returns the mid-run checkpoint options to attach (nil =
	// no checkpointing for that run). The runner arms the workload's
	// record/replay layer, fills in the options' Workload hook, and
	// threads them into core.Run. Checkpointing is a pure observer — the
	// simulated outcome is bit-identical with or without it — so, like
	// Telemetry, it does not participate in the spec hash.
	Checkpoint func(label string) *core.CheckpointOptions

	// Restore, when non-empty, is a checkpoint file to resume each run
	// from: the run loads it, verifies integrity and spec identity,
	// rewinds the freshly built machine and workload to the saved cycle,
	// and continues to completion. A missing, truncated, corrupt, or
	// spec-mismatched checkpoint falls back to running from scratch (the
	// reason is reported through RestoreFallback when set). Requires a
	// Checkpoint factory: resume needs the record/replay layer armed.
	Restore string

	// RestoreFallback, when non-nil, is told why a Restore checkpoint
	// was not used and the run started from scratch instead.
	RestoreFallback func(label string, err error)

	// ResumeFromCheckpoints, when set (and Restore is empty), resumes
	// each run from its own Checkpoint path when a valid checkpoint
	// already exists there — the retry/takeover discipline: a previous
	// attempt's partial progress is picked up instead of re-simulated.
	// A missing or invalid file runs from scratch.
	ResumeFromCheckpoints bool

	// Logger, when non-nil, emits structured per-point lifecycle lines
	// through the internal/runner pool (start/done with point, spec_hash,
	// status). Like Telemetry and Tracer it is a pure observer on the
	// orchestration path — never core.Run's per-cycle path — and does not
	// participate in the spec hash.
	Logger *slog.Logger

	// Tracer, when non-nil, records the run's cycle-resolved event stream
	// (internal/tracing). Like Telemetry it is a pure observer and does not
	// participate in the spec hash. The runner installs the workload's
	// PC-to-routine resolver; the caller owns export. Intended for single
	// runs (cmd/dbsim) — a sweep would overwrite the tracer per point.
	Tracer *tracing.Tracer

	// Parallel is the number of worker goroutines each multi-point figure
	// uses to run its points (through the internal/runner pool). 0 means
	// min(GOMAXPROCS, number of points); 1 forces serial execution.
	// Parallelism is bit-identical to serial execution (each point is an
	// independent deterministic simulation), so it does not participate in
	// the spec hash. Figures with a Tracer attached always run serially:
	// the tracer is shared mutable state.
	Parallel int

	// DisableFastForward turns off the event-driven idle-cycle skip in
	// every run (core.RunOptions.DisableFastForward). Fast-forward is
	// bit-identical by construction, so this does not participate in the
	// spec hash; the equivalence tests use it as the reference arm.
	DisableFastForward bool
}

// pipelineFor resolves the per-run telemetry pipeline (nil when disabled).
func (sc *Scale) pipelineFor(label string) *telemetry.Pipeline {
	if sc.Telemetry == nil {
		return nil
	}
	return sc.Telemetry(label)
}

// checkpointFor resolves the per-run checkpoint options (nil when disabled).
func (sc *Scale) checkpointFor(label string) *core.CheckpointOptions {
	if sc.Checkpoint == nil {
		return nil
	}
	return sc.Checkpoint(label)
}

// resumeState arms workload checkpointing and, when Scale.Restore names a
// checkpoint file, loads and validates it. Load failures (missing,
// truncated, corrupt, wrong spec) are reported through RestoreFallback and
// return a nil state so the caller runs from scratch — a half-written
// checkpoint must never poison a sweep point, only cost re-simulation.
func (sc *Scale) resumeState(label string, ck *core.CheckpointOptions, w core.WorkloadCheckpointer) (*core.MachineState, error) {
	if ck != nil {
		ck.Workload = w
	}
	path := sc.Restore
	if path == "" && sc.ResumeFromCheckpoints && ck != nil {
		path = ck.Path
	}
	if path == "" {
		return nil, nil
	}
	if ck == nil {
		return nil, fmt.Errorf("experiments: %q: Scale.Restore requires a Checkpoint factory", label)
	}
	st, err := core.LoadCheckpoint(path, ck.SpecHash)
	if err != nil {
		if sc.RestoreFallback != nil {
			sc.RestoreFallback(label, err)
		}
		return nil, nil
	}
	return st, nil
}

// DefaultScale is used by cmd/sweep and EXPERIMENTS.md.
var DefaultScale = Scale{
	OLTPTransactions: 3,
	OLTPWarmupTx:     1,
	DSSRows:          40_000,
	MaxCycles:        600_000_000,
}

// QuickScale keeps benchmark iterations short.
var QuickScale = Scale{
	OLTPTransactions: 1,
	OLTPWarmupTx:     0,
	DSSRows:          8_000,
	MaxCycles:        200_000_000,
}

// RunOLTP simulates the OLTP workload on machine cfg and returns the report.
func RunOLTP(cfg config.Config, sc Scale, label string, hints oltp.HintLevel) (*stats.Report, error) {
	cfg = sc.overlay(cfg)
	wcfg := oltp.DefaultConfig(cfg.Nodes)
	wcfg.TransactionsPerProcess = sc.OLTPTransactions + sc.OLTPWarmupTx
	wcfg.Hints = hints
	w := oltp.New(wcfg)
	warmup := uint64(sc.OLTPWarmupTx) * uint64(wcfg.Processes) * w.ApproxInstrPerTx()
	rep, err := sc.run(cfg, label, "oltp", w, wcfg.Processes, warmup,
		"txns_committed", func() uint64 { return w.Transactions })
	if err != nil {
		return rep, err
	}
	if err := w.Err(); err != nil {
		return rep, fmt.Errorf("experiments: OLTP %q: workload failed: %w", label, err)
	}
	if err := w.TPCB().CheckConsistency(); err != nil {
		return rep, fmt.Errorf("experiments: OLTP %q: %w", label, err)
	}
	return rep, nil
}

// RunDSS simulates the DSS workload on machine cfg and returns the report.
func RunDSS(cfg config.Config, sc Scale, label string) (*stats.Report, error) {
	cfg = sc.overlay(cfg)
	wcfg := dss.DefaultConfig(cfg.Nodes)
	wcfg.RowsPerProcess = sc.DSSRows
	w := dss.New(wcfg)
	// Warm up over the first ~30% of the scan (one pass of the per-process
	// work area through the L2).
	warmup := uint64(wcfg.Processes) * w.ApproxInstrPerProcess() * 3 / 10
	return sc.run(cfg, label, "dss", w, wcfg.Processes, warmup,
		"rows_scanned", func() uint64 { return w.RowsScanned })
}

// overlay applies the scale's fault profile and latch policy to cfg.
func (sc *Scale) overlay(cfg config.Config) config.Config {
	if sc.Faults.Enabled {
		cfg.Faults = sc.Faults
	}
	if sc.LatchPolicy != config.LatchPlain {
		cfg.LatchPolicy = sc.LatchPolicy
	}
	return cfg
}

// simWorkload is what the shared run body needs of a workload.
type simWorkload interface {
	core.WorkloadCheckpointer
	Stream(proc int) trace.Stream
	Resolve(pc uint64) (string, bool)
	EnableCheckpointing()
}

// run is the body RunOLTP and RunDSS share: it builds the machine with
// one process per stream, attaches the scale's observers (telemetry with
// the workload's progress probe, tracer, checkpoints), resumes from a
// checkpoint when one is due, and runs to completion.
func (sc *Scale) run(cfg config.Config, label, kind string, w simWorkload, procs int, warmup uint64,
	probe string, progress func() uint64) (*stats.Report, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	for p := 0; p < procs; p++ {
		sys.AddProcess(p%cfg.Nodes, w.Stream(p))
	}
	pipe := sc.pipelineFor(label)
	if pipe != nil {
		pipe.SetTag("workload", kind)
		pipe.SetTag("label", label)
		pipe.RegisterProbe(probe, progress)
		defer func() { _ = pipe.Close() }()
	}
	if sc.Tracer != nil {
		sc.Tracer.SetResolver(w.Resolve)
	}
	ck := sc.checkpointFor(label)
	if ck != nil {
		w.EnableCheckpointing()
	}
	resume, err := sc.resumeState(label, ck, w)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s %q: %w", strings.ToUpper(kind), label, err)
	}
	opt := core.RunOptions{
		Label:              label,
		WarmupInstructions: warmup,
		MaxCycles:          sc.MaxCycles,
		Context:            sc.Context,
		WatchdogWindow:     sc.WatchdogWindow,
		DisableWatchdog:    sc.DisableWatchdog,
		Telemetry:          pipe,
		Tracer:             sc.Tracer,
		DisableFastForward: sc.DisableFastForward,
		Checkpoint:         ck,
	}
	var rep *stats.Report
	if resume != nil {
		rep, err = sys.RestoreAndRun(opt, resume)
	} else {
		rep, err = sys.Run(opt)
	}
	if err != nil {
		return rep, fmt.Errorf("experiments: %s %q: %w", strings.ToUpper(kind), label, err)
	}
	return rep, nil
}

// Result is one experiment's output: its rows plus rendered tables.
type Result struct {
	ID      string
	Title   string
	Reports []*stats.Report
	Tables  []string // rendered tables, ready to print
}

// Render returns the result as printable text.
func (r *Result) Render() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t + "\n"
	}
	return out
}

// PointSpec is the JSON identity of one experiment run point. Its runner
// spec hash keys the durable sweep journal: any change to the experiment
// id, the scale, or the fault profile re-runs the point on -resume instead
// of reusing a stale result.
type PointSpec struct {
	Experiment string `json:"experiment"`

	OLTPTransactions int    `json:"oltp_tx"`
	OLTPWarmupTx     int    `json:"oltp_warmup_tx"`
	DSSRows          int    `json:"dss_rows"`
	MaxCycles        uint64 `json:"max_cycles"`
	WatchdogWindow   uint64 `json:"watchdog_window,omitempty"`
	DisableWatchdog  bool   `json:"disable_watchdog,omitempty"`

	Faults config.FaultConfig `json:"faults"`

	// LatchPolicy is omitted when LatchPlain (0), so every pre-elision
	// spec keeps its original hash and journaled results stay valid.
	LatchPolicy config.LatchPolicy `json:"latch_policy,omitempty"`
}

// Spec returns the hashed identity of experiment id under sc. Context,
// Telemetry, and Tracer deliberately do not participate: cancellation
// plumbing and observer sinks change no simulated outcome.
func (sc Scale) Spec(id string) PointSpec {
	return PointSpec{
		Experiment:       id,
		OLTPTransactions: sc.OLTPTransactions,
		OLTPWarmupTx:     sc.OLTPWarmupTx,
		DSSRows:          sc.DSSRows,
		MaxCycles:        sc.MaxCycles,
		WatchdogWindow:   sc.WatchdogWindow,
		DisableWatchdog:  sc.DisableWatchdog,
		Faults:           sc.Faults,
		LatchPolicy:      sc.LatchPolicy,
	}
}

// sanitizeLabel maps a run label onto a safe filename fragment.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, label)
}

// maxRunsPerExperiment is the largest number of simulations a single
// experiment performs (fig6: 2 workloads x 9 configurations). The derived
// per-point wall-clock deadline budgets for the worst case.
const maxRunsPerExperiment = 18

// Points adapts experiments to orchestration run points (internal/runner):
// each point threads the pool's per-point context into the runs, clears
// the fault profile when the pool retries a fault-induced failure, and is
// journaled under sc's spec hash. perPoint, when non-nil, derives each
// point's scale from the base (cmd/sweep uses it to attach per-experiment
// telemetry factories); it must only change observers — the spec hash is
// computed from the base scale.
func Points(exps []Experiment, sc Scale, perPoint func(id string, sc Scale) Scale) []runner.Point {
	pts := make([]runner.Point, 0, len(exps))
	for _, e := range exps {
		e := e
		pts = append(pts, runner.Point{
			ID:        e.ID,
			Spec:      sc.Spec(e.ID),
			MaxCycles: sc.MaxCycles * maxRunsPerExperiment,
			Faulty:    sc.Faults.Enabled,
			Run: func(ctx context.Context, att runner.Attempt) (any, error) {
				esc := sc
				if perPoint != nil {
					esc = perPoint(e.ID, sc)
				}
				esc.Context = ctx
				if att.DisableFaults {
					esc.Faults = config.FaultConfig{}
				}
				armCheckpoints(&esc, e.ID, att.CheckpointPath)
				return e.Run(esc)
			},
		})
	}
	return pts
}

// armCheckpoints wires the pool-supplied checkpoint path prefix into a
// point's effective scale (shared by the local grid builder Points and
// the remote worker's PointFromSpec). Every run of the experiment
// checkpoints under the prefix (one file per run label) and later
// attempts resume from those files. The spec hash is taken from the
// *effective* scale, so a fault-disabled retry — a different simulation
// — rejects the faulted attempt's checkpoints and restarts clean.
func armCheckpoints(esc *Scale, id, prefix string) {
	if prefix == "" || esc.Checkpoint != nil {
		return
	}
	spec := runner.SpecHash(esc.Spec(id))
	esc.Checkpoint = func(label string) *core.CheckpointOptions {
		return &core.CheckpointOptions{
			Path:     prefix + "." + sanitizeLabel(label) + ".ckpt",
			SpecHash: spec + "/" + label,
		}
	}
	esc.ResumeFromCheckpoints = true
}
