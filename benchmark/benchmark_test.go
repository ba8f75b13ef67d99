package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload/oltp"
)

// TestHarnessMatchesExperiments checks that the benchmark's own harness, which
// builds each simulation from the public constructors so that the traced run
// can wrap streams, simulates exactly what dbsim and sweep simulate: its
// Report bytes at the default seed equal experiments.RunOLTP's and
// RunDSS's, whose digests are the stored references.
func TestHarnessMatchesExperiments(t *testing.T) {
	var ref map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"oltp", "dss"} {
		m, err := build(wl, config.Default(), defaultSeed, benchScale, nil, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.sys.Run(m.opt)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		var want *stats.Report
		if wl == "oltp" {
			want, err = experiments.RunOLTP(config.Default(), benchScale, runLabel, oltp.HintNone)
		} else {
			want, err = experiments.RunDSS(config.Default(), benchScale, runLabel)
		}
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: harness report differs from experiments'\n got %s\nwant %s", wl, gb, wb)
		}
		if d, _ := digest([]*stats.Report{want}); d != ref[wl] {
			t.Errorf("%s: reference digest %s, experiments' report digests to %s", wl, ref[wl], d)
		}
	}
}

// TestEveryMetricEmitted runs every workload once, untraced and traced, at
// the smallest scale, and checks that each run succeeds and emits exactly
// the metrics BENCHMARK.json names, with their units.
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ref map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	delete(ref, "dss") // this test scans fewer rows than the reference run
	sc := benchScale
	sc.DSSRows = 1000
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := workloads[w.Name](options{workload: w.Name, seed: 2, trace: traced, scale: sc, reference: ref})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				continue
			}
			var sum float64
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, ".self_frac") {
					sum += m.Value
				}
			}
			if sum < 0.9 || sum > 1+1e-9 {
				t.Errorf("%s: self_frac values sum to %.4f; the modules should account for the profile", w.Name, sum)
			}
		}
	}
}

// TestProfileAttribution checks how profile samples are charged to
// modules and to the traced run's own instrumentation.
func TestProfileAttribution(t *testing.T) {
	for pkg, want := range map[string]string{
		"repro/internal/cpu":           "cpu",
		"repro/internal/workload/oltp": "workload",
		"repro/internal/db":            "workload",
		"repro/internal/trace":         "workload",
		"repro/internal/stats":         "other",
		"runtime":                      "runtime",
		"internal/runtime/maps":        "runtime",
		"sort":                         "other",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
	for fn, want := range map[string]string{
		"repro/internal/cpu.(*Core).Tick":              "repro/internal/cpu",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "internal/runtime/maps",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if !strings.HasSuffix(wrapperFrame, ".(*timedStream).Next") {
		t.Errorf("wrapperFrame = %q", wrapperFrame)
	}
	for _, c := range []struct {
		frames []string
		want   bool
	}{
		{[]string{"runtime.nanotime1", "time.Now", wrapperFrame, "repro/internal/cpu.(*Core).Tick"}, true},
		{[]string{"repro/internal/workload.(*Gen).Next", wrapperFrame, "repro/internal/cpu.(*Core).Tick"}, false},
		{[]string{"runtime.mallocgc", "repro/internal/db.(*TPCB).Deposit", "repro/internal/workload.(*Gen).Next", wrapperFrame}, false},
		{[]string{"repro/internal/cpu.(*Core).Tick"}, false},
	} {
		if got := inWrapper(c.frames); got != c.want {
			t.Errorf("inWrapper(%q) = %v, want %v", c.frames, got, c.want)
		}
	}
}
