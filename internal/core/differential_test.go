package core_test

// The differential suite: the fast-path kernels (internal/rat
// arithmetic) must be observationally identical to the frozen
// all-big.Rat reference build (internal/core/bigref) — same
// Schedulable/FailingTask/AcceptedBy/Reason, byte-identical
// certificate JSON (exact RatStrings for every LHS/RHS/λ) — across
// thousands of generated tasksets from all three workload profiles,
// the paper's Tables 1–3, and every test variant. This is what makes
// the numeric-layer rewrite safe to ship: the reference build IS the
// previous implementation, moved.

import (
	"context"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/core/bigref"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
	"fpgasched/internal/workload"
)

func taskTime(v int64) timeunit.Time { return timeunit.Time(v) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// diffPair couples a production test with its reference build.
type diffPair struct {
	fast, ref core.Test
}

// diffPairs covers every registry entry: plain tests, option variants,
// and the two composites (whose AcceptedBy attribution and recursive
// SubVerdicts certificates are compared too).
func diffPairs() []diffPair {
	return []diffPair{
		{core.DPTest{}, bigref.DPTest{}},
		{core.DPTest{RealValuedAlpha: true}, bigref.DPTest{RealValuedAlpha: true}},
		{core.GN1Test{}, bigref.GN1Test{}},
		{core.GN1Test{Variant: core.GN1VariantBCL}, bigref.GN1Test{Variant: core.GN1VariantBCL}},
		{core.GN2Test{}, bigref.GN2Test{}},
		{core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}},
			bigref.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}}},
		{core.GN2Test{Options: core.GN2Options{CondTwoNonStrict: true}},
			bigref.GN2Test{Options: core.GN2Options{CondTwoNonStrict: true}}},
		{core.GN2Test{Options: core.GN2Options{CaseTwoBaker: true}},
			bigref.GN2Test{Options: core.GN2Options{CaseTwoBaker: true}}},
		{core.ForNF(), bigref.ForNF()},
		{core.ForFkF(), bigref.ForFkF()},
	}
}

// assertIdentical compares every observable field of the two verdicts,
// including the exported certificate byte for byte.
func assertIdentical(t *testing.T, label string, fast, ref core.Verdict) {
	t.Helper()
	if fast.Err != nil || ref.Err != nil {
		t.Fatalf("%s: unexpected abort (fast=%v ref=%v)", label, fast.Err, ref.Err)
	}
	if fast.Test != ref.Test {
		t.Fatalf("%s: Test %q != %q", label, fast.Test, ref.Test)
	}
	if fast.Schedulable != ref.Schedulable {
		t.Fatalf("%s: Schedulable fast=%v ref=%v", label, fast.Schedulable, ref.Schedulable)
	}
	if fast.FailingTask != ref.FailingTask {
		t.Fatalf("%s: FailingTask fast=%d ref=%d", label, fast.FailingTask, ref.FailingTask)
	}
	if fast.AcceptedBy != ref.AcceptedBy {
		t.Fatalf("%s: AcceptedBy fast=%q ref=%q", label, fast.AcceptedBy, ref.AcceptedBy)
	}
	if fast.Reason != ref.Reason {
		t.Fatalf("%s: Reason fast=%q ref=%q", label, fast.Reason, ref.Reason)
	}
	fc, err := json.Marshal(fast.Certificate())
	if err != nil {
		t.Fatalf("%s: marshal fast certificate: %v", label, err)
	}
	rc, err := json.Marshal(ref.Certificate())
	if err != nil {
		t.Fatalf("%s: marshal ref certificate: %v", label, err)
	}
	if string(fc) != string(rc) {
		t.Fatalf("%s: certificates differ\nfast: %s\nref:  %s", label, fc, rc)
	}
}

// diffCompare runs every pair on one (device, set) and asserts
// equivalence with the big.Rat reference. For the screening kernels
// (GN2 and DP) this is also the screen's proof: its "certainly violated
// ⇒ skip exact work" shortcut must never change a verdict, an
// attribution, or a certificate byte.
func diffCompare(t *testing.T, label string, dev core.Device, s *task.Set) {
	t.Helper()
	ctx := context.Background()
	for _, p := range diffPairs() {
		assertIdentical(t, label+"/"+p.fast.Name(), p.fast.Analyze(ctx, dev, s), p.ref.Analyze(ctx, dev, s))
	}
}

// TestDifferentialTables pins the seeded corpus: the paper's Tables
// 1–3 on the paper's 10-column device, where every knife-edge equality
// (DP at Table 1, GN2's λ = 0.19 condition-2 equality) must be decided
// identically by both arithmetic layers.
func TestDifferentialTables(t *testing.T) {
	dev := core.NewDevice(workload.TableDeviceColumns)
	for name, set := range map[string]*task.Set{
		"table1": workload.Table1(),
		"table2": workload.Table2(),
		"table3": workload.Table3(),
	} {
		diffCompare(t, name, dev, set)
	}
}

// TestDifferentialGenerated sweeps ≥1000 generated tasksets from all
// three workload profiles (the Figure 3 unconstrained distribution and
// both Figure 4 skews) across all test pairs.
func TestDifferentialGenerated(t *testing.T) {
	profiles := []func(int) workload.Profile{
		workload.Unconstrained,
		workload.SpatiallyHeavyTemporallyLight,
		workload.SpatiallyLightTemporallyHeavy,
	}
	sizes := []int{2, 5, 8}
	dev := core.NewDevice(workload.FigureDeviceColumns)
	sets := 0
	for pi, pf := range profiles {
		for seed := uint64(1); seed <= 120; seed++ {
			for si, n := range sizes {
				r := workload.Rand(seed + uint64(pi)*1000 + uint64(si)*100000)
				s := pf(n).Generate(r)
				diffCompare(t, pf(n).Name, dev, s)
				sets++
			}
		}
	}
	if sets < 1000 {
		t.Fatalf("differential corpus covered %d sets, want >= 1000", sets)
	}
	t.Logf("fast path ≡ big.Rat reference on %d generated tasksets × %d test variants", sets, len(diffPairs()))
}

// TestDifferentialPostPeriodDeadlines exercises the β middle case and
// the λk scaling, which the paper profiles (D = T) never reach: random
// sets with a mix of post-period and constrained deadlines.
func TestDifferentialPostPeriodDeadlines(t *testing.T) {
	dev := core.NewDevice(12)
	for seed := uint64(1); seed <= 150; seed++ {
		r := workload.Rand(seed)
		n := 1 + int(seed%6)
		s := &task.Set{}
		for i := 0; i < n; i++ {
			period := int64(4+r.IntN(16)) * 10000
			d := period
			switch r.IntN(3) {
			case 0:
				d = period * 2 // post-period: middle β case reachable
			case 1:
				d = period / 2 // constrained: λk = λ·Tk/Dk scaling
			}
			c := 1 + r.Int64N(min64(d, period))
			s.Tasks = append(s.Tasks, task.Task{
				C: taskTime(c), D: taskTime(d), T: taskTime(period), A: 1 + r.IntN(10),
			})
		}
		if err := s.ValidateFor(dev.Columns); err != nil {
			continue
		}
		diffCompare(t, "postperiod", dev, s)
	}
}

// TestParallelSweepMatchesSerial asserts the bounded-parallel per-task
// sweep is observationally identical to the serial one — the property
// that lets engine.Config.SweepWorkers change throughput without ever
// changing an answer. Run under -race this also exercises the sweep
// workers' memory discipline.
func TestParallelSweepMatchesSerial(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	par := core.WithSweepWorkers(context.Background(), workers)
	dev := core.NewDevice(workload.FigureDeviceColumns)
	for _, g := range []core.Test{
		core.GN2Test{},
		core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}},
	} {
		for seed := uint64(1); seed <= 25; seed++ {
			r := workload.Rand(seed)
			s := workload.Unconstrained(30).Generate(r)
			serial := g.Analyze(context.Background(), dev, s)
			assertIdentical(t, "parallel/"+g.Name(), g.Analyze(par, dev, s), serial)
		}
	}
}

// pollLimitedCtx reports itself cancelled after a fixed number of
// Err() polls, so mid-sweep abort paths can be hit deterministically
// (a λ sweep polls once per candidate).
type pollLimitedCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *pollLimitedCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestSweepCancellationMidRun verifies serial and parallel sweeps
// abort mid-candidate-loop and report the abort identically: Err set,
// no evidence, nothing cacheable.
func TestSweepCancellationMidRun(t *testing.T) {
	s := workload.Unconstrained(30).Generate(workload.Rand(3))
	dev := core.NewDevice(workload.FigureDeviceColumns)
	for name, ctxOf := range map[string]func() context.Context{
		"serial": func() context.Context {
			return &pollLimitedCtx{Context: context.Background(), limit: 40}
		},
		"parallel": func() context.Context {
			return core.WithSweepWorkers(&pollLimitedCtx{Context: context.Background(), limit: 40}, 4)
		},
	} {
		v := (core.GN2Test{}).Analyze(ctxOf(), dev, s)
		if v.Err == nil {
			t.Fatalf("%s: cancelled sweep returned a definite verdict", name)
		}
		if v.Schedulable || len(v.Checks) != 0 {
			t.Fatalf("%s: aborted verdict must carry no evidence: %+v", name, v)
		}
	}
}
