package core_test

// Micro-benchmarks for the analysis kernels, with the frozen big.Rat
// reference build as the before/after baseline. `make bench` archives
// these as bench-results/BENCH_core.json (uploaded from CI), so the
// perf trajectory of the numeric layer is recorded from the fast-path
// PR onward: compare BenchmarkGN2SweepScreened against
// BenchmarkGN2SweepRef for the speedup, and allocs/op for the
// allocation reduction. Each kernel has one path: GN2 and DP always run
// the interval screen, GN1 never does.

import (
	"context"
	"runtime"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/core/bigref"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// benchSet100 is the 100-task acceptance workload: the paper's
// unconstrained Figure-3 distribution at production scale, on the
// figure device. Heavily loaded, so GN2 sweeps the full candidate set
// for most tasks — the worst case the serving path must survive.
func benchSet100() (*workload.Profile, int) {
	p := workload.Unconstrained(100)
	return &p, workload.FigureDeviceColumns
}

func benchAnalyze(b *testing.B, ctx context.Context, t core.Test, n int) {
	b.Helper()
	p, cols := benchSet100()
	p.N = n
	set := p.Generate(workload.Rand(uint64(n)))
	dev := core.NewDevice(cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := t.Analyze(ctx, dev, set)
		if v.Err != nil {
			b.Fatal(v.Err)
		}
	}
}

// BenchmarkGN2SweepScreened is the acceptance benchmark: the production
// λ sweep on a 100-task set (serial, as a request under full engine
// load runs it). The certified interval pre-filter discards
// strictly-violated candidates on directed-rounding float intervals and
// only straddling ones reach the exact kernel.
func BenchmarkGN2SweepScreened(b *testing.B) {
	benchAnalyze(b, context.Background(), core.GN2Test{}, 100)
}

// BenchmarkGN2SweepRef is the same sweep on the big.Rat reference
// build — the pre-refactor implementation, kept runnable so the
// speedup stays measurable in every future run.
func BenchmarkGN2SweepRef(b *testing.B) {
	benchAnalyze(b, context.Background(), bigref.GN2Test{}, 100)
}

// BenchmarkGN2SweepParallelScreened is the same sweep with the per-task
// checks fanned across all CPUs (engine.Config.SweepWorkers < 0), the
// single-large-analysis latency configuration.
func BenchmarkGN2SweepParallelScreened(b *testing.B) {
	ctx := core.WithSweepWorkers(context.Background(), runtime.GOMAXPROCS(0))
	benchAnalyze(b, ctx, core.GN2Test{}, 100)
}

// BenchmarkGN2xSweepScreened covers the extended-λ variant (a superset
// candidate list, so proportionally more per-candidate work).
func BenchmarkGN2xSweepScreened(b *testing.B) {
	benchAnalyze(b, context.Background(), core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}}, 100)
}

// BenchmarkGN1 / BenchmarkGN1Ref measure the O(N²) interference test.
func BenchmarkGN1(b *testing.B) {
	benchAnalyze(b, context.Background(), core.GN1Test{}, 100)
}

func BenchmarkGN1Ref(b *testing.B) {
	benchAnalyze(b, context.Background(), bigref.GN1Test{}, 100)
}

// BenchmarkDPScreened / BenchmarkDPRef measure the closed-form bound.
// The DP certificate is exact either way; the screen decides only the
// per-task comparison.
func BenchmarkDPScreened(b *testing.B) {
	benchAnalyze(b, context.Background(), core.DPTest{}, 100)
}

func BenchmarkDPRef(b *testing.B) {
	benchAnalyze(b, context.Background(), bigref.DPTest{}, 100)
}

// figure3Mix is the analyze-cold set mix: Figure-3 Unconstrained or
// Heterogeneous profile, N ∈ {10, 25, 50}, target US drawn from the
// paper's 5..100 axis, so accepting and rejecting sets both occur. The
// corpus is fixed per seed, and every benchmark iteration analyses the
// next set in it.
func figure3Mix(n int) []*task.Set {
	sets := make([]*task.Set, n)
	for i := range sets {
		r := workload.Rand(uint64(i) + 1)
		size := [...]int{10, 25, 50}[r.IntN(3)]
		p := workload.Unconstrained(size)
		if r.IntN(2) == 1 {
			p = workload.Heterogeneous(size)
		}
		sets[i], _ = p.GenerateWithTargetUS(r, float64(5*(1+r.IntN(20))))
	}
	return sets
}

func benchFigure3Mix(b *testing.B, t core.Test) {
	b.Helper()
	sets := figure3Mix(64)
	dev := core.NewDevice(workload.FigureDeviceColumns)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := t.Analyze(ctx, dev, sets[i%len(sets)]); v.Err != nil {
			b.Fatal(v.Err)
		}
	}
}

// BenchmarkGN2Figure3Mix is the GN2 kernel on the analyze-cold shape:
// one serial analysis per op over the Figure-3 mix (mean ns per set).
func BenchmarkGN2Figure3Mix(b *testing.B) { benchFigure3Mix(b, core.GN2Test{}) }

// BenchmarkGN1Figure3Mix and BenchmarkDPFigure3Mix are the sibling
// kernels a cold analyze runs next to GN2, on the same corpus.
func BenchmarkGN1Figure3Mix(b *testing.B) { benchFigure3Mix(b, core.GN1Test{}) }

func BenchmarkDPFigure3Mix(b *testing.B) { benchFigure3Mix(b, core.DPTest{}) }
