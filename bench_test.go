package repro

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the figure at QuickScale (a full multiprocessor
// simulation sweep), so run with -benchtime=1x for a single regeneration:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// The benchmark reports, besides wall time, the simulated instructions per
// wall-clock second of the figure's runs (sim_MIPS) — the simulator's own
// throughput metric.

import (
	"testing"

	"repro/internal/experiments"
)

func benchFigure(b *testing.B, run func(experiments.Scale) (*experiments.Result, error)) {
	b.ReportAllocs()
	var instr uint64 // accumulated across iterations, reported once
	for i := 0; i < b.N; i++ {
		res, err := run(experiments.QuickScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Reports {
			instr += r.Instructions
		}
	}
	b.ReportMetric(float64(instr)/1e6/b.Elapsed().Seconds(), "sim_Minstr/s")
}

func BenchmarkFig2a(b *testing.B)     { benchFigure(b, experiments.Fig2a) }
func BenchmarkFig2b(b *testing.B)     { benchFigure(b, experiments.Fig2b) }
func BenchmarkFig2c(b *testing.B)     { benchFigure(b, experiments.Fig2c) }
func BenchmarkFig2dg(b *testing.B)    { benchFigure(b, experiments.Fig2dg) }
func BenchmarkFig3a(b *testing.B)     { benchFigure(b, experiments.Fig3a) }
func BenchmarkFig3b(b *testing.B)     { benchFigure(b, experiments.Fig3b) }
func BenchmarkFig3c(b *testing.B)     { benchFigure(b, experiments.Fig3c) }
func BenchmarkFig3dg(b *testing.B)    { benchFigure(b, experiments.Fig3dg) }
func BenchmarkFig4(b *testing.B)      { benchFigure(b, experiments.Fig4) }
func BenchmarkFig5(b *testing.B)      { benchFigure(b, experiments.Fig5) }
func BenchmarkFig6(b *testing.B)      { benchFigure(b, experiments.Fig6) }
func BenchmarkFig7a(b *testing.B)     { benchFigure(b, experiments.Fig7a) }
func BenchmarkFig7b(b *testing.B)     { benchFigure(b, experiments.Fig7b) }
func BenchmarkMissRates(b *testing.B) { benchFigure(b, experiments.MissRates) }
func BenchmarkMigratory(b *testing.B) { benchFigure(b, experiments.MigratoryCharacterization) }

// Ablations and extensions (see DESIGN.md per-experiment index).
func BenchmarkExtLineSize(b *testing.B) { benchFigure(b, experiments.AblationLineSize) }
func BenchmarkExtFlushInv(b *testing.B) { benchFigure(b, experiments.AblationFlushInvalidate) }
func BenchmarkExtRestart(b *testing.B)  { benchFigure(b, experiments.AblationBranchPenalty) }
func BenchmarkExtMigProto(b *testing.B) { benchFigure(b, experiments.MigratoryProtocol) }
func BenchmarkExtUniSB(b *testing.B)    { benchFigure(b, experiments.UniStreamBuffer) }
func BenchmarkExtBTBPf(b *testing.B)    { benchFigure(b, experiments.BTBPrefetch) }
func BenchmarkExtValidate(b *testing.B) { benchFigure(b, experiments.Validation) }
