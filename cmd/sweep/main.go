// Command sweep regenerates the paper's tables and figures. Each figure is
// a set of simulations whose rows are printed in the same series the paper
// plots (normalized execution-time breakdowns, read-stall magnifications,
// MSHR occupancy distributions, characterization tables).
//
// Points run through the supervised orchestration layer (internal/runner):
// a bounded worker pool with per-point deadlines, panic isolation,
// classified retries, and a durable JSONL journal. An interrupted sweep
// (Ctrl-C drains in-flight points; a second Ctrl-C aborts them) can be
// re-invoked with -resume to run only the points the journal does not
// already cover.
//
// Examples:
//
//	sweep -list
//	sweep -fig fig2a
//	sweep -fig fig6 -scale quick
//	sweep -all | tee experiments_output.txt
//	sweep -all -json results.json
//	sweep -all -parallel 4 -journal sweep.jsonl     # bounded worker pool
//	sweep -all -parallel 4 -journal sweep.jsonl -resume
//	sweep -fig fig2a,fig3a -telemetry-dir series/   # one JSONL series per run point
//	sweep -remote http://host:8044 -all             # submit to a sweepd fleet
//
// With -remote the grid is submitted to a sweepd server (cmd/sweepd) and
// executed by its sweepworker fleet: per-point status streams back, the
// merged results are fetched when the job completes, and points whose spec
// hash is already in the server's content-addressed result cache return
// instantly. -merged writes the canonical merged-results JSON, which is
// byte-identical between a serial local run and a distributed remote run
// of the same grid (the chaos harness's acceptance check).
//
// Exit status: 0 when every point succeeds, 1 when nothing succeeds, 2 on
// flag/usage errors, 3 on partial success (some points completed, some
// failed or were interrupted; partial results are still written).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/sweepsvc"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// logger is the process-wide structured logger (stderr JSON; stdout stays
// reserved for rendered results). logf bridges printf-style progress lines
// into it at info level.
var (
	logger *slog.Logger
	logf   func(format string, args ...any)
)

func fatal(err error) {
	logger.Error("fatal", "error", err.Error())
	os.Exit(1)
}

// pointJSON is the machine-readable form of one run point, written by
// -json. Unlike the pre-orchestration format it carries per-point status,
// so partially-failed and interrupted sweeps still produce usable output.
type pointJSON struct {
	ID       string          `json:"id"`
	Title    string          `json:"title,omitempty"`
	Status   runner.Status   `json:"status"`
	Class    runner.Class    `json:"class,omitempty"`
	Error    string          `json:"error,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Resumed  bool            `json:"resumed,omitempty"`
	Seconds  float64         `json:"seconds"`
	Reports  []*stats.Report `json:"reports,omitempty"`
}

func main() {
	logger = obs.Init("sweep")
	logf = obs.Printf(logger, slog.LevelInfo)
	var (
		fig          = flag.String("fig", "", "experiment id(s) to run, comma-separated (see -list)")
		all          = flag.Bool("all", false, "run every experiment")
		list         = flag.Bool("list", false, "list experiment ids")
		scale        = flag.String("scale", "default", "workload scale: default or quick")
		timeout      = flag.Duration("timeout", 0, "wall-clock bound on the whole sweep (0 = none)")
		jsonPath     = flag.String("json", "", "also write results as JSON to this file (\"-\" = stdout)")
		telemetryDir = flag.String("telemetry-dir", "", "write one JSONL telemetry series per run point into this directory")
		telInterval  = flag.Uint64("telemetry-interval", 0, "telemetry sampling interval in cycles (0 = config default, 100k)")

		remote      = flag.String("remote", "", "submit the grid to this sweepd server instead of running locally (e.g. http://host:8044)")
		jobID       = flag.String("job", "", "job id for -remote submissions (default: server-assigned)")
		mergedPath  = flag.String("merged", "", "write canonical merged results JSON to this file (local and -remote runs of the same grid produce identical bytes)")
		spanLogPath = flag.String("span-log", "", "with -remote: append the client's job span to this JSONL span log (stitch with sweeptrace)")

		parallel     = flag.Int("parallel", 1, "worker pool size (points run concurrently; outcomes stay deterministic)")
		serial       = flag.Bool("serial", false, "run each figure's simulations serially (default: a per-figure pool of up to GOMAXPROCS workers)")
		journalPath  = flag.String("journal", "", "durable JSONL run journal, appended as each point completes")
		resume       = flag.Bool("resume", false, "skip points with a terminal record in -journal")
		ckDir        = flag.String("checkpoint-dir", "", "checkpoint running points under this directory; interrupted or retried points resume from their last capture instead of restarting")
		retries      = flag.Int("retries", 2, "sweep-wide retry budget for retryable failures")
		pointTimeout = flag.Duration("point-timeout", 0, "per-point wall-clock deadline (0 = derived from the scale's cycle budget)")
		inject       = flag.String("inject", "", "comma-separated synthetic failure points for chaos testing: panic, livelock")

		latchPolicy = flag.String("latch-policy", "", "overlay a latch policy on every experiment: plain, hints or htm (empty = each experiment's own)")

		faultSeed  = flag.Uint64("fault-seed", 1, "fault injector seed")
		faultMesh  = flag.Float64("fault-mesh", 0, "per-message mesh delay probability (0 disables)")
		faultNACK  = flag.Float64("fault-nack", 0, "per-request directory NACK probability (0 disables)")
		faultStall = flag.Float64("fault-stall", 0, "per-access transient memory stall probability (0 disables)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalUsage("unexpected arguments: %v", flag.Args())
	}

	if *list {
		fmt.Println("id         description")
		for _, e := range experiments.All {
			fmt.Printf("%-10s %s\n", e.ID, e.Notes)
		}
		return
	}

	sc := experiments.DefaultScale
	switch *scale {
	case "default":
	case "quick":
		sc = experiments.QuickScale
	default:
		fatalUsage("unknown scale %q (default or quick)", *scale)
	}
	if *serial {
		sc.Parallel = 1
	}
	if *latchPolicy != "" {
		lp, ok := config.ParseLatchPolicy(*latchPolicy)
		if !ok {
			fatalUsage("unknown latch policy %q (plain, hints or htm)", *latchPolicy)
		}
		sc.LatchPolicy = lp
	}
	if *faultMesh > 0 || *faultNACK > 0 || *faultStall > 0 {
		sc.Faults = config.FaultConfig{
			Enabled:        true,
			Seed:           *faultSeed,
			MeshDelayProb:  *faultMesh,
			MeshDelayMax:   20,
			NACKProb:       *faultNACK,
			NACKMaxRetries: 4,
			NACKBackoff:    50,
			MemStallProb:   *faultStall,
			MemStallCycles: 100,
		}
		if err := sc.Faults.Validate(); err != nil {
			fatalUsage("%v", err)
		}
	}
	if *telemetryDir != "" {
		if err := os.MkdirAll(*telemetryDir, 0o777); err != nil {
			// Not a usage error: the path was valid, creating it failed.
			fatal(fmt.Errorf("creating -telemetry-dir %s: %v", *telemetryDir, err))
		}
	} else if *telInterval != 0 {
		fatalUsage("-telemetry-interval needs -telemetry-dir")
	}
	if *resume && *journalPath == "" {
		fatalUsage("-resume needs -journal")
	}
	if *parallel < 1 {
		fatalUsage("-parallel must be >= 1")
	}
	sc.Logger = logger

	// Select the experiments to run. fig1 is a parameter table, not a
	// simulation, so it prints directly and never enters the pool.
	var selected []experiments.Experiment
	switch {
	case *all:
		fmt.Print(experiments.Fig1Params().Render())
		fmt.Println()
		selected = experiments.All
	case *fig != "":
		byID := make(map[string]experiments.Experiment, len(experiments.All))
		for _, e := range experiments.All {
			byID[e.ID] = e
		}
		seen := map[string]bool{}
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			if id == "" || seen[id] {
				continue
			}
			seen[id] = true
			if id == "fig1" {
				fmt.Print(experiments.Fig1Params().Render())
				continue
			}
			e, ok := byID[id]
			if !ok {
				fatalUsage("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
		if len(selected) == 0 {
			return // only fig1 requested
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	// Remote mode: hand the grid to a sweepd fleet and wait for the
	// merged results; everything local below (telemetry, journal, pool)
	// is the workers' business, not ours.
	if *remote != "" {
		if *inject != "" || *telemetryDir != "" || *journalPath != "" || *resume {
			fatalUsage("-inject/-telemetry-dir/-journal/-resume are local-run knobs; not available with -remote")
		}
		os.Exit(runRemote(*remote, *jobID, selected, sc, *mergedPath, *timeout, *spanLogPath, *faultSeed))
	}
	if *spanLogPath != "" {
		fatalUsage("-span-log needs -remote (local sweeps have no cross-process trace)")
	}

	// Per-point telemetry: one JSONL series per run point, named with the
	// collision-proof id/label hash so shared labels cannot clobber each
	// other's series.
	var perPoint func(id string, esc experiments.Scale) experiments.Scale
	if *telemetryDir != "" {
		perPoint = func(id string, esc experiments.Scale) experiments.Scale {
			esc.Telemetry = func(label string) *telemetry.Pipeline {
				path := filepath.Join(*telemetryDir, telemetry.SeriesFileName(id, label))
				sink, err := telemetry.OpenJSONLSink(path)
				if err != nil {
					logger.Warn("telemetry series dropped", obs.KeyPoint, id, "error", err.Error())
					return nil
				}
				pipe := telemetry.New(*telInterval)
				pipe.SetTag("fig", id)
				pipe.Attach(sink, nil)
				return pipe
			}
			return esc
		}
	}

	points := experiments.Points(selected, sc, perPoint)
	if *telemetryDir != "" {
		for i := range points {
			points[i].Series = filepath.Join(*telemetryDir, points[i].ID+"__*.jsonl")
		}
	}
	injected, err := injectedPoints(*inject)
	if err != nil {
		fatalUsage("%v", err)
	}
	points = append(points, injected...)

	// Journal + resume.
	var journal *runner.Journal
	var completed map[string]*runner.Record
	if *journalPath != "" {
		if *resume {
			// Torn or corrupt journal lines (a crash mid-write) are skipped
			// with a warning; their points simply re-run.
			completed, err = runner.ReadJournalWarn(*journalPath, obs.Printf(logger.With("subsystem", "journal"), slog.LevelWarn))
			if err != nil {
				fatal(err)
			}
		}
		journal, err = runner.OpenJournal(*journalPath)
		if err != nil {
			fatal(err)
		}
	}

	// Interrupt handling: first signal drains (in-flight points finish and
	// are journaled), second aborts in-flight points.
	hardCtx, hardCancel := context.WithCancel(context.Background())
	if *timeout > 0 {
		hardCtx, hardCancel = context.WithTimeout(context.Background(), *timeout)
	}
	defer hardCancel()
	drainCtx, drainCancel := context.WithCancel(context.Background())
	defer drainCancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		logger.Warn("interrupt: draining in-flight points; interrupt again to abort them")
		drainCancel()
		<-sigc
		logger.Warn("interrupt: aborting in-flight points")
		hardCancel()
	}()

	notes := make(map[string]string, len(selected))
	for _, e := range selected {
		notes[e.ID] = e.Notes
	}
	sum, err := runner.Run(hardCtx, points, runner.Options{
		Workers:       *parallel,
		PointTimeout:  *pointTimeout,
		RetryBudget:   *retries,
		CheckpointDir: *ckDir,
		Journal:       journal,
		Completed:     completed,
		Drain:         drainCtx,
		OnEvent:       eventLogger(notes),
		Logger:        logger,
		Provenance:    sweepProvenance(*faultSeed),
	})
	if err != nil {
		fatal(err)
	}
	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			logger.Warn("journal close failed", "error", cerr.Error())
		}
	}
	if sum.JournalErrs > 0 {
		logger.Warn("journal writes failed; -resume may re-run those points", "failed_writes", sum.JournalErrs)
	}

	if *jsonPath != "" && len(sum.Records) > 0 {
		if werr := writeJSON(*jsonPath, sum); werr != nil {
			logger.Error("writing -json output failed", "error", werr.Error())
			if sum.Complete() {
				os.Exit(1)
			}
		}
	}
	if *mergedPath != "" {
		if werr := writeMergedLocal(*mergedPath, sum); werr != nil {
			logger.Error("writing -merged output failed", "error", werr.Error())
			if sum.Complete() {
				os.Exit(1)
			}
		}
	}

	// Final summary: one structured line carrying the whole outcome and the
	// exit code (3 = partial/interrupted; see README "Exit codes").
	code := sum.ExitCode()
	lvl := slog.LevelInfo
	if code != 0 {
		lvl = slog.LevelWarn
	}
	logger.Log(context.Background(), lvl, "sweep finished",
		"ok", sum.OK, "recovered", sum.Recovered, "failed", sum.Failed,
		"canceled", sum.Canceled, "skipped", sum.Skipped,
		"reused", sum.Reused, "retries", sum.RetriesUsed,
		obs.KeyExitCode, code)
	os.Exit(code)
}

// sweepProvenance is the provenance record stamped on every journaled
// point of a local sweep (the remote path's records are stamped by the
// worker that actually ran them).
func sweepProvenance(seed uint64) *obs.Provenance {
	p := obs.Collect("sweep", os.Args[1:])
	p.Seed = seed
	return p
}

// eventLogger renders pool progress: completed results stream to stdout in
// completion order; failures, retries and skips go to the log.
func eventLogger(notes map[string]string) func(runner.Event) {
	return func(ev runner.Event) {
		switch ev.Kind {
		case runner.EventRetry:
			logf("%s: attempt %d failed (%v); retrying in %v", ev.Point, ev.Attempt, ev.Err, ev.Delay)
		case runner.EventSkip:
			if ev.Record != nil && ev.Record.Reused {
				logf("%s: complete in journal (%s), skipping", ev.Point, ev.Record.Status)
			} else {
				logf("%s: skipped (sweep draining)", ev.Point)
			}
		case runner.EventDone:
			if res, ok := ev.Result.(*experiments.Result); ok && res != nil {
				fmt.Print(res.Render())
				fmt.Printf("   [%s, %.1fs]\n\n", notes[ev.Point], ev.Record.Seconds)
			}
			switch ev.Record.Status {
			case runner.StatusRecovered:
				logf("%s: recovered after disabling the fault profile (%d attempts; original failure: %s)",
					ev.Point, ev.Record.Attempts, ev.Record.Error)
			case runner.StatusFailed, runner.StatusCanceled:
				logf("%s: %s (%s): %s", ev.Point, ev.Record.Status, ev.Record.Class, ev.Record.Error)
				if ev.Record.Diag != nil {
					fmt.Fprint(os.Stderr, ev.Record.Diag.String())
				}
			}
		}
	}
}

// injectedPoints builds the synthetic chaos points requested by -inject:
// "panic" crashes inside the point (exercising panic isolation), and
// "livelock" fails with a fault-injected watchdog trip until the pool
// retries it with faults disabled (exercising classified retry and
// recovered_after_fault journaling).
func injectedPoints(kinds string) ([]runner.Point, error) {
	if kinds == "" {
		return nil, nil
	}
	var pts []runner.Point
	for _, k := range strings.Split(kinds, ",") {
		switch strings.TrimSpace(k) {
		case "panic":
			pts = append(pts, runner.Point{
				ID:   "inject-panic",
				Spec: "inject-panic",
				Run: func(context.Context, runner.Attempt) (any, error) {
					// Crash inside a real machine so the failure carries a
					// machine snapshot, exactly like a model invariant blowing
					// up mid-run.
					cfg := config.Default()
					cfg.Nodes = 1
					sys, err := core.NewSystem(cfg)
					if err != nil {
						return nil, err
					}
					sys.AddProcess(0, panicStream{})
					_, err = sys.Run(core.RunOptions{Label: "inject-panic", MaxCycles: 1_000_000})
					return nil, err
				},
			})
		case "livelock":
			pts = append(pts, runner.Point{
				ID:     "inject-livelock",
				Spec:   "inject-livelock",
				Faulty: true,
				Run: func(_ context.Context, att runner.Attempt) (any, error) {
					if att.DisableFaults {
						return &experiments.Result{
							ID:    "inject-livelock",
							Title: "synthetic fault-injected livelock (clean retry succeeded)",
						}, nil
					}
					return nil, livelockError()
				},
			})
		default:
			return nil, fmt.Errorf("unknown -inject kind %q (panic or livelock)", k)
		}
	}
	return pts, nil
}

// panicStream panics on its first instruction, standing in for an internal
// invariant violation inside the machine model.
type panicStream struct{}

func (panicStream) Next(*trace.Instr) bool { panic("injected panic point") }

// livelockError fabricates the failure a fault-induced livelock produces:
// a watchdog ProgressError carrying a real machine snapshot.
func livelockError() error {
	pe := &core.ProgressError{Cycle: 2_000_000, LastProgress: 0, Window: 2_000_000}
	cfg := config.Default()
	cfg.Nodes = 1
	if sys, err := core.NewSystem(cfg); err == nil {
		pe.Snapshot = sys.Snapshot("watchdog")
	}
	return pe
}

// runRemote submits the selected experiments to a sweepd server, streams
// per-point progress, renders completed results, and optionally writes the
// canonical merged-results file. Returns the process exit code using the
// same convention as local runs (0 complete, 3 partial, 1 nothing).
//
// The submission roots the job's distributed trace: a "job" span is minted
// here (recorded to spanLogPath when set) and its context rides the
// SubmitRequest, so sweepd's submit/lease/merge spans — and through the
// lease responses every worker's run spans — all share one trace ID.
func runRemote(base, jobID string, selected []experiments.Experiment, sc experiments.Scale, mergedPath string, timeout time.Duration, spanLogPath string, seed uint64) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var spans *obs.SpanLog
	if spanLogPath != "" {
		var err error
		spans, err = obs.OpenSpanLog(spanLogPath, "sweep")
		if err != nil {
			logger.Error("span log", "error", err.Error())
			return 1
		}
		defer spans.Close()
	}

	req := &sweepsvc.SubmitRequest{JobID: jobID, Provenance: sweepProvenance(seed)}
	for _, e := range selected {
		spec, err := sc.SpecJSON(e.ID)
		if err != nil {
			logger.Error("spec", "error", err.Error())
			return 1
		}
		req.Points = append(req.Points, sweepsvc.JobPoint{
			ID:        e.ID,
			Spec:      spec,
			MaxCycles: sc.MaxCycles,
			Faulty:    sc.Faults.Enabled,
		})
	}
	// Root span for the whole job. Emit even with no span log (nil-safe):
	// the minted context still propagates, so the server-side tree hangs
	// together and only the client-side root record is absent.
	jobStart := time.Now()
	jobSC := spans.Emit(obs.SpanContext{}, "job", jobStart, jobStart, nil)
	req.Trace = &jobSC
	req.Provenance.Trace = jobSC.Trace

	cl := &sweepsvc.Client{
		Base: base,
		OnRetry: func(op string, err error, delay time.Duration) {
			logf("%s failed (%v); retrying in %v", op, err, delay)
		},
	}
	st, err := cl.Submit(ctx, req)
	if err != nil {
		logger.Error("submit failed", "error", err.Error())
		return 1
	}
	logger.Info("job submitted", obs.KeyJob, st.JobID, "points", st.Total,
		"done", st.Done, "cached", st.Cached, obs.KeyTrace, jobSC.Trace)

	st, err = cl.WaitJob(ctx, st.JobID, func(ev sweepsvc.Event) {
		switch ev.Status {
		case sweepsvc.PointLeased:
			logf("%s: leased to %s", ev.ID, ev.Worker)
		case sweepsvc.PointDone:
			if ev.Cached {
				logf("%s: done (result cache)", ev.ID)
			} else {
				logf("%s: done on %s", ev.ID, ev.Worker)
			}
		case sweepsvc.PointFailed:
			logf("%s: failed on %s: %s", ev.ID, ev.Worker, ev.Error)
		case sweepsvc.PointPending:
			if ev.Worker == "" && ev.Seq > 0 {
				logf("%s: lease expired; re-queued", ev.ID)
			}
		}
	})
	if err != nil {
		logger.Error("wait failed", "error", err.Error())
		return 1
	}

	res, err := cl.Results(ctx, st.JobID)
	if err != nil {
		logger.Error("results fetch failed", "error", err.Error())
		return 1
	}
	for _, p := range res.Points {
		if len(p.Result) == 0 {
			continue
		}
		var r experiments.Result
		if json.Unmarshal(p.Result, &r) == nil && r.ID != "" {
			fmt.Print(r.Render())
			fmt.Println()
		}
	}
	if mergedPath != "" {
		if werr := writeMergedFile(mergedPath, res.Points); werr != nil {
			logger.Error("writing -merged output failed", "error", werr.Error())
			return 1
		}
	}

	code := 0
	switch {
	case st.Failed == 0 && st.Done == st.Total:
	case st.Done > 0:
		code = 3
	default:
		code = 1
	}
	// Re-record the job root with its true duration now the job is over
	// (the stitcher keeps the later record; see obs.Stitch).
	if jobSC.Valid() {
		spans.Record(obs.Span{
			Trace: jobSC.Trace, ID: jobSC.Span, Name: "job",
			Start: jobStart.UnixNano(), End: time.Now().UnixNano(),
			Attrs: map[string]string{obs.KeyJob: st.JobID, "exit": fmt.Sprint(code)},
		})
	}
	lvl := slog.LevelInfo
	if code != 0 {
		lvl = slog.LevelWarn
	}
	logger.Log(context.Background(), lvl, "job finished", obs.KeyJob, st.JobID,
		"done", st.Done, "cached", st.Cached, "failed", st.Failed,
		"total", st.Total, obs.KeyExitCode, code)
	return code
}

// writeMergedLocal writes a local summary in the canonical merged-results
// byte form shared with -remote (sweepsvc.WriteMerged), so the chaos
// harness can diff a serial local sweep against a distributed one.
func writeMergedLocal(path string, sum *runner.Summary) error {
	return writeMergedFile(path, sweepsvc.MergedFromRecords(sum.Records))
}

func writeMergedFile(path string, pts []sweepsvc.MergedPoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sweepsvc.WriteMerged(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fatalUsage reports a flag/usage error: message, usage text, exit 2.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// writeJSON writes one pointJSON per record ("-" = stdout), including
// records replayed from the journal on -resume, so the output always
// reflects everything known about the sweep — even when it only partially
// succeeded.
func writeJSON(path string, sum *runner.Summary) error {
	results := make([]pointJSON, 0, len(sum.Records))
	for _, rec := range sum.Records {
		pj := pointJSON{
			ID:       rec.ID,
			Status:   rec.Status,
			Class:    rec.Class,
			Error:    rec.Error,
			Attempts: rec.Attempts,
			Resumed:  rec.Reused,
			Seconds:  rec.Seconds,
		}
		if len(rec.Result) > 0 {
			var res experiments.Result
			if err := json.Unmarshal(rec.Result, &res); err == nil {
				pj.Title = res.Title
				pj.Reports = res.Reports
			}
		}
		results = append(results, pj)
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
