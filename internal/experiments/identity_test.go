package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// The identity harness enforces the simulator's byte-identity contracts.
// Each cell (workload × latch policy × fault profile) is simulated in a
// few arms, each arm at most once per test binary, and every check
// requires two arms to match:
//
//	P1  on ≡ off             fast-forward ≡ tick-every-cycle on the production path
//	P2  captured ≡ off       a checkpoint capture is a settle point, nothing more
//	P3  resumed ≡ traced     interrupt+restore ≡ uninterrupted
//	P4  traced ≡ on          the tracer is a pure observer
//	P5  traced-off ≡ traced  traced fast-forward (OLTP/plain and OLTP/htm)
//
// Two arms match when their Reports (every breakdown float and histogram
// bucket) and telemetry JSONL bytes are identical; when both are traced,
// also their exported trace bytes and trace aggregate totals; when both
// captured checkpoints untraced, also their last captured MachineStates.

// testScale is small enough to keep the suite fast but long enough to
// cross several telemetry intervals, context switches, lock contention,
// and the warm-up reset in both workloads.
func testScale() Scale {
	return Scale{
		OLTPTransactions: 1,
		OLTPWarmupTx:     1,
		DSSRows:          2_000,
		MaxCycles:        200_000_000,
	}
}

type nopWriteCloser struct{ *bytes.Buffer }

func (nopWriteCloser) Close() error { return nil }

type cell struct {
	name   string
	oltp   bool
	latch  config.LatchPolicy
	faults bool // the deterministic timing-fault profile below
	// short marks the -short subset, which CI runs under -race: cheap
	// cells that still cover plain locking and HTM-abort settling.
	short bool
}

// The latch policies change what a stalled core waits on: hints adds
// flushes behind releases, htm elides the latch and aborts on
// invalidations (a settle point of its own). The fault profile's NACK
// storms and stretched latencies reshape exactly the spans fast-forward
// skips.
var cells = []cell{
	{name: "OLTP/plain", oltp: true},
	{name: "OLTP/hints", oltp: true, latch: config.LatchHints},
	{name: "OLTP/htm", oltp: true, latch: config.LatchHTM},
	{name: "OLTP/faults", oltp: true, faults: true},
	{name: "DSS/plain", short: true},
	{name: "DSS/hints", latch: config.LatchHints},
	{name: "DSS/htm", latch: config.LatchHTM, short: true},
}

var faultProfile = config.FaultConfig{
	Enabled:        true,
	Seed:           42,
	MeshDelayProb:  0.05,
	MeshDelayMax:   40,
	NACKProb:       0.02,
	NACKMaxRetries: 4,
	NACKBackoff:    20,
	MemStallProb:   0.05,
	MemStallCycles: 60,
}

// arm is one way of running a cell.
type arm struct {
	ffOff     bool
	traced    bool
	every     uint64 // checkpoint capture interval in cycles (0 = none)
	stopAfter int    // cancel the run after this many captures
	restore   string // checkpoint file to resume from; captures then go to it
	spec      string // checkpoint spec hash ("" = identitySpec)
}

const (
	identityLabel = "identity" // stamped on every telemetry sample
	identitySpec  = "identity-spec"
	// captureEvery is off the 50 000-cycle telemetry grid, so most
	// captures settle cores on their own rather than right after a sample.
	captureEvery = 170_000
)

var arms = map[string]arm{
	"on":          {},
	"off":         {ffOff: true, every: captureEvery},
	"captured":    {every: captureEvery},
	"traced":      {traced: true},
	"traced-off":  {ffOff: true, traced: true},
	"interrupted": {traced: true, every: 50_000, stopAfter: 2},
	// restore is filled in from the cell's interrupted arm
	"resumed": {traced: true, every: core.DefaultCheckpointInterval},
}

// result is one arm's output.
type result struct {
	rep      *stats.Report
	err      error // the run's error (the interrupted arm's cancellation)
	jsonl    []byte
	trace    []byte          // SHA-256 of the exported Chrome trace
	totals   stats.Breakdown // trace aggregate totals
	state    []byte          // digest of the last capture of an untraced arm
	image    []byte          // the interrupted arm's last capture file
	fallback error           // why a restore ran from scratch instead
}

// simulate runs cell c as arm a.
func simulate(t *testing.T, c cell, a arm) *result {
	t.Helper()
	sc := testScale()
	sc.LatchPolicy = c.latch
	if c.faults {
		sc.Faults = faultProfile
	}
	sc.DisableFastForward = a.ffOff
	res := &result{}
	var jsonl bytes.Buffer
	sc.Telemetry = func(string) *telemetry.Pipeline {
		pipe := telemetry.New(50_000)
		pipe.Attach(telemetry.NewJSONLSink(nopWriteCloser{&jsonl}), nil)
		return pipe
	}
	if a.traced {
		sc.Tracer = tracing.New(tracing.Options{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc.Context = ctx
	spec, ckPath := a.spec, a.restore
	if spec == "" {
		spec = identitySpec
	}
	if ckPath == "" {
		ckPath = filepath.Join(t.TempDir(), "run.ckpt")
	}
	if a.every > 0 {
		captures := 0
		sc.Checkpoint = func(string) *core.CheckpointOptions {
			return &core.CheckpointOptions{Path: ckPath, Interval: a.every, SpecHash: spec,
				OnCapture: func(uint64, string) {
					if captures++; captures == a.stopAfter {
						cancel()
					}
				}}
		}
	}
	if a.restore != "" {
		sc.Restore = a.restore
		sc.RestoreFallback = func(_ string, err error) { res.fallback = err }
	}

	if c.oltp {
		res.rep, res.err = RunOLTP(config.Default(), sc, identityLabel, 0)
	} else {
		res.rep, res.err = RunDSS(config.Default(), sc, identityLabel)
	}
	res.jsonl = jsonl.Bytes()
	if a.traced && res.err == nil {
		h := sha256.New()
		if err := sc.Tracer.WriteChrome(h); err != nil {
			t.Fatal(err)
		}
		res.trace = h.Sum(nil)
		res.totals = sc.Tracer.Analysis().Totals()
	}
	if a.every > 0 {
		st, err := core.LoadCheckpoint(ckPath, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycle == 0 {
			t.Fatal("last checkpoint captured at cycle 0")
		}
		if !a.traced { // a traced state is mostly the tracer's ring; traces are compared instead
			res.state = stateDigest(t, st)
		}
		if a.stopAfter > 0 {
			if res.image, err = os.ReadFile(ckPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	return res
}

// memo holds every (cell, arm) simulated so far, keyed "cell arm". The
// checks run as parallel tests, so an arm two of them need is simulated
// by whichever asks first while the other waits.
var memo sync.Map

type memoArm struct {
	once sync.Once
	r    *result
}

// get returns cell c's arm name, simulating it on first use, and checks
// what every arm must show on its own.
func get(t *testing.T, c cell, name string) *result {
	t.Helper()
	key := c.name + " " + name
	v, _ := memo.LoadOrStore(key, &memoArm{})
	m := v.(*memoArm)
	m.once.Do(func() {
		a := arms[name]
		if name == "resumed" {
			a.restore = filepath.Join(t.TempDir(), "resume.ckpt")
			if err := os.WriteFile(a.restore, get(t, c, "interrupted").image, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m.r = simulate(t, c, a)
	})
	r := m.r
	if r == nil {
		t.Fatalf("%s: simulation failed", key)
	}
	if r.fallback != nil {
		t.Fatalf("%s: restore fell back to from-scratch: %v", key, r.fallback)
	}
	if name == "interrupted" {
		if r.err == nil {
			t.Fatalf("%s: ran to completion; shrink its capture interval", key)
		}
		return r
	}
	if r.err != nil {
		t.Fatalf("%s: %v", key, r.err)
	}
	if r.rep.Instructions == 0 {
		t.Fatalf("%s: degenerate run: no instructions retired", key)
	}
	if c.latch == config.LatchPlain && (r.rep.HTMBegins != 0 || r.rep.HTMCommits != 0 || r.rep.HTMAborts() != 0) {
		t.Errorf("%s: plain latch policy shows HTM activity: %+v", key, r.rep)
	}
	if c.oltp && c.latch == config.LatchPlain && r.rep.LatchAcquires == 0 {
		t.Errorf("%s: OLTP run recorded no latch acquires", key)
	}
	return r
}

// same requires arms a and b of one cell to match.
func same(t *testing.T, a, b *result, an, bn string) {
	t.Helper()
	if !reflect.DeepEqual(a.rep, b.rep) {
		t.Errorf("%s/%s: reports differ (must be bitwise equal):\ncycles %d/%d, instructions %d/%d\n%s %v\n%s %v",
			an, bn, a.rep.Cycles, b.rep.Cycles, a.rep.Instructions, b.rep.Instructions,
			an, a.rep.Breakdown, bn, b.rep.Breakdown)
	}
	if !bytes.Equal(a.jsonl, b.jsonl) {
		t.Errorf("%s/%s: telemetry JSONL series differ (%d vs %d bytes)", an, bn, len(a.jsonl), len(b.jsonl))
	}
	if a.trace != nil && b.trace != nil {
		if !bytes.Equal(a.trace, b.trace) {
			t.Errorf("%s/%s: exported traces differ", an, bn)
		}
		if a.totals != b.totals {
			t.Errorf("%s/%s: trace aggregate totals differ:\n%v\n%v", an, bn, a.totals, b.totals)
		}
	}
	if a.state != nil && b.state != nil && !bytes.Equal(a.state, b.state) {
		t.Errorf("%s/%s: last captured machine states differ", an, bn)
	}
}

// stateDigest hashes what two equal machine states must agree on, in
// JSON, which writes map keys sorted. The workload image is decoded first,
// because gob writes maps (the OLTP account deltas) in iteration order.
// Each core's Poked flag is cleared: it only invalidates the fast-forward
// wake cache, a run ticking every cycle never consumes it, and after a
// restore (empty wake cache) a stale poke only forces one extra tick.
func stateDigest(t *testing.T, st *core.MachineState) []byte {
	t.Helper()
	var w workloadImage
	if err := gob.NewDecoder(bytes.NewReader(st.Workload)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	st.Workload = nil
	for i := range st.Cores {
		st.Cores[i].Poked = false
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode([2]any{st, w}); err != nil {
		t.Fatal(err)
	}
	return h.Sum(nil)
}

// workloadImage holds either workload's checkpointed generation state (gob
// matches fields by name and skips those the stream lacks).
type workloadImage struct {
	Drawn       []uint64
	RowsScanned uint64
	Hist        [][]struct {
		Block int
		Addr  uint64
	}
	Allocs       [][][]uint64
	TPCB         db.TPCBState
	Redo         db.RedoLogState
	Transactions uint64
}

// check requires every named arm of the cell to match the base arm.
func check(t *testing.T, c cell, base string, others ...string) {
	t.Helper()
	if testing.Short() && !c.short {
		t.Skip("identity cell outside the -short subset")
	}
	t.Parallel()
	b := get(t, c, base)
	for _, o := range others {
		same(t, b, get(t, c, o), base, o)
	}
}

func cellNamed(name string) cell {
	for _, c := range cells {
		if c.name == name {
			return c
		}
	}
	panic("no identity cell " + name)
}

// forCells runs check over the named cells (all of them when none are named).
func forCells(t *testing.T, names []string, base string, others ...string) {
	if len(names) == 0 {
		for _, c := range cells {
			names = append(names, c.name)
		}
	}
	for _, n := range names {
		t.Run(n, func(t *testing.T) { check(t, cellNamed(n), base, others...) })
	}
}

// P1 and P4: the production arm matches ticking every cycle and the traced run.
func ffEquivalence(t *testing.T, name string) { check(t, cellNamed(name), "on", "off", "traced") }

func TestFastForwardEquivalenceOLTP(t *testing.T)      { ffEquivalence(t, "OLTP/plain") }
func TestFastForwardEquivalenceOLTPHints(t *testing.T) { ffEquivalence(t, "OLTP/hints") }
func TestFastForwardEquivalenceOLTPHTM(t *testing.T)   { ffEquivalence(t, "OLTP/htm") }
func TestFastForwardEquivalenceFaults(t *testing.T)    { ffEquivalence(t, "OLTP/faults") }
func TestFastForwardEquivalenceDSS(t *testing.T)       { ffEquivalence(t, "DSS/plain") }
func TestFastForwardEquivalenceDSSHints(t *testing.T)  { ffEquivalence(t, "DSS/hints") }
func TestFastForwardEquivalenceDSSHTM(t *testing.T)    { ffEquivalence(t, "DSS/htm") }

// P2: a capture settles every core's deferred cycles and caps the quiet
// spans, so a fast-forwarded run split at each capture must still match
// ticking every cycle, last captured machine state included.
func TestFastForwardEquivalenceCheckpointed(t *testing.T) {
	forCells(t, nil, "captured", "off")
}

// P5: bulk-applied stall spans, lock-contention windows and HTM aborts
// settled inside invalidations must export the same trace as ticking every
// cycle.
func TestFastForwardEquivalenceTraced(t *testing.T) {
	forCells(t, []string{"OLTP/plain", "OLTP/htm"}, "traced", "traced-off")
}

// P3: a run interrupted after its second capture and resumed from that
// checkpoint, capturing on, finishes byte-identical to the run left alone.
// Each latch policy exercises a different slice of the serialized state.
func TestCheckpointByteIdentity(t *testing.T) {
	forCells(t, nil, "traced", "resumed")
}
