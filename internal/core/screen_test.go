package core_test

// Tests for the interval screen's observable contract: the counter
// plumbing, the guarantee that near-boundary bounds escalate to exact
// arithmetic rather than being decided on floats, and the counters'
// per-kernel accounting invariants. The screen's semantic equivalence
// is covered by the differential suite, which compares every screening
// kernel against the all-big.Rat reference build.

import (
	"context"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/core/bigref"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// statsCtx returns a context with a fresh counter sink attached.
func statsCtx() (context.Context, *core.ScreenStats) {
	st := new(core.ScreenStats)
	return core.WithScreenStats(context.Background(), st), st
}

// TestScreenKnifeEdgeEscalates pins the adversarial near-boundary case:
// the paper's Table-1 taskset meets GN2's condition 2 with EXACT
// equality at the accepting candidate λ = 0.19 (DESIGN.md item
// T3-STRICT). No float comparison can be trusted to resolve an exact
// tie, and the interval screen never tries: widening makes every
// post-operation enclosure non-degenerate, so the equality straddles
// the bound and the candidate escalates to the exact kernel — under
// both resolutions of the strictness ambiguity, and with the verdict
// identical to the all-big.Rat reference build's.
func TestScreenKnifeEdgeEscalates(t *testing.T) {
	dev := core.NewDevice(workload.TableDeviceColumns)
	set := workload.Table1()
	for _, o := range []core.GN2Options{
		{},                       // strict condition 2: Table 1 rejected at the tie
		{CondTwoNonStrict: true}, // non-strict: accepted at the tie
	} {
		g := core.GN2Test{Options: o}
		ctx, st := statsCtx()
		assertIdentical(t, "knife-edge/"+g.Name(), g.Analyze(ctx, dev, set),
			bigref.GN2Test{Options: o}.Analyze(context.Background(), dev, set))
		if esc := st.Escalated.Load(); esc < 1 {
			t.Fatalf("%s: knife-edge candidate decided on floats (escalated=%d, decided=%d)",
				g.Name(), esc, st.Decided.Load())
		}
	}
}

// TestScreenDecidesOffBoundaryCandidates verifies the screen earns its
// keep: on a taskset GN2 rejects, the failing task's sweep tries every
// candidate, and the candidates that are not near a bound must be
// disposed of without exact arithmetic.
func TestScreenDecidesOffBoundaryCandidates(t *testing.T) {
	dev := core.NewDevice(workload.FigureDeviceColumns)
	for seed := uint64(1); seed <= 30; seed++ {
		s := workload.Unconstrained(30).Generate(workload.Rand(seed))
		ctx, st := statsCtx()
		v := (core.GN2Test{}).Analyze(ctx, dev, s)
		if v.Schedulable {
			continue
		}
		if st.Decided.Load() == 0 {
			t.Fatalf("seed %d: rejecting sweep decided no candidate on intervals (escalated=%d)",
				seed, st.Escalated.Load())
		}
		return
	}
	t.Fatal("no rejecting taskset found in 30 seeds; widen the search")
}

// TestGN1MovesNoScreenCounter: GN1 has no interval screen, so its
// analyses — accepting, rejecting, in both βi variants — must leave the
// counter sink at zero.
func TestGN1MovesNoScreenCounter(t *testing.T) {
	ctx, st := statsCtx()
	dev := core.NewDevice(workload.TableDeviceColumns)
	sets := []*task.Set{workload.Table1(), workload.Table2(), workload.Table3()}
	for seed := uint64(1); seed <= 10; seed++ {
		sets = append(sets, workload.Unconstrained(8).Generate(workload.Rand(seed)))
	}
	for _, g := range []core.GN1Test{{}, {Variant: core.GN1VariantBCL}} {
		for _, s := range sets {
			g.Analyze(ctx, dev, s)
		}
	}
	if d, e := st.Decided.Load(), st.Escalated.Load(); d != 0 || e != 0 {
		t.Fatalf("GN1 moved the screen counters: decided=%d escalated=%d", d, e)
	}
}

// TestScreenCountersAccountPerBound pins the counters' unit: DP
// classifies exactly one bound per task (its certificate always carries
// the exact sides, so the screen decides only the comparison), hence
// decided + escalated equals the task count whenever the set reaches
// the per-task loop.
func TestScreenCountersAccountPerBound(t *testing.T) {
	dev := core.NewDevice(workload.TableDeviceColumns)
	cases := []struct {
		test core.Test
		set  *task.Set
	}{
		{core.DPTest{}, workload.Table1()},
		{core.DPTest{}, workload.Table2()},
		{core.DPTest{}, workload.Table3()},
	}
	for _, c := range cases {
		ctx, st := statsCtx()
		v := c.test.Analyze(ctx, dev, c.set)
		if v.Err != nil {
			t.Fatalf("%s: unexpected abort: %v", c.test.Name(), v.Err)
		}
		want := uint64(len(c.set.Tasks))
		if got := st.Decided.Load() + st.Escalated.Load(); got != want {
			t.Fatalf("%s: decided+escalated = %d, want one per task = %d (decided=%d escalated=%d)",
				c.test.Name(), got, want, st.Decided.Load(), st.Escalated.Load())
		}
	}
}

// TestScreenStatsSharedAcrossParallelSweep: the counter sink is shared
// by all sweep workers (atomics), and the totals are deterministic for
// a rejecting set — every worker tries the full candidate list of its
// failing tasks regardless of interleaving.
func TestScreenStatsSharedAcrossParallelSweep(t *testing.T) {
	dev := core.NewDevice(workload.FigureDeviceColumns)
	var set *task.Set
	for seed := uint64(1); seed <= 30; seed++ {
		s := workload.Unconstrained(20).Generate(workload.Rand(seed))
		if v := (core.GN2Test{}).Analyze(context.Background(), dev, s); !v.Schedulable && v.Err == nil {
			set = s
			break
		}
	}
	if set == nil {
		t.Skip("no rejecting taskset found")
	}
	serialCtx, serialSt := statsCtx()
	(core.GN2Test{}).Analyze(serialCtx, dev, set)
	parCtx, parSt := statsCtx()
	(core.GN2Test{}).Analyze(core.WithSweepWorkers(parCtx, 4), dev, set)
	// Accepting tasks stop at the same first accepting candidate in
	// both modes; failing tasks sweep everything. Totals must agree.
	if serialSt.Decided.Load() != parSt.Decided.Load() || serialSt.Escalated.Load() != parSt.Escalated.Load() {
		t.Fatalf("parallel sweep changed screen accounting: serial=(%d,%d) parallel=(%d,%d)",
			serialSt.Decided.Load(), serialSt.Escalated.Load(),
			parSt.Decided.Load(), parSt.Escalated.Load())
	}
}
