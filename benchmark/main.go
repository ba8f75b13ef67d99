// Command benchmark is the repository's benchmark. It runs one workload of
// the simulator for a fixed host time, checks that every simulated result is
// unchanged, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) by name with their units. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. Build and run it from the repository root with run.sh:
//
//	bash benchmark/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
//
// README.md next to this file describes the workloads, the metrics and the
// baseline.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/experiments"
)

// defaultSeed is the workload seed the repository's experiments use
// (oltp.DefaultConfig and dss.DefaultConfig); its Report digests are stored
// in reference.json.
const defaultSeed = 1

// benchScale is the simulated work of one repetition: the scale of the
// repository's Go benchmarks (experiments.QuickScale).
var benchScale = experiments.QuickScale

//go:embed reference.json
var referenceJSON []byte

// options selects one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    experiments.Scale
	// reference maps a workload to its Report digest at defaultSeed and
	// benchScale; a workload without an entry skips that check.
	reference map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(options) (*result, error){
	"oltp":  runSim,
	"dss":   runSim,
	"fig2a": runFig2a,
}

func main() {
	o := options{scale: benchScale}
	flag.StringVar(&o.workload, "workload", "", "workload to run: oltp, dss or fig2a")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed for oltp and dss (fig2a always uses the figure's own)")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || flag.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload oltp|dss|fig2a [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.trace = *trace == 1
	if err := json.Unmarshal(referenceJSON, &o.reference); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reference.json:", err)
		os.Exit(1)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-6s %-30s %14.6g %s\n", o.workload, name, m.Value, m.Unit)
	}
	fmt.Printf("%s attempted %d, failed %d\n", o.workload, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
