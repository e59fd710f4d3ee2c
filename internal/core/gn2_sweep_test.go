package core_test

// Coverage for the GN2 sweep's per-set hoists: the global candidate
// index, the per-set case-1 β rule and the last-candidate evidence
// shared by every task. Each is checked against the big.Rat reference
// build, serial and with parallel sweep workers (run under -race in CI).

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/core/bigref"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// gn2Pairs is every GN2 configuration with its reference build.
func gn2Pairs() []diffPair {
	var out []diffPair
	for _, o := range []core.GN2Options{
		{},
		{ExtendedLambdaSearch: true},
		{CondTwoNonStrict: true},
		{CaseTwoBaker: true},
	} {
		out = append(out, diffPair{core.GN2Test{Options: o}, bigref.GN2Test{Options: o}})
	}
	return out
}

// sweepContexts are the sweep configurations every answer must be
// identical under: serial and parallel.
func sweepContexts() map[string]context.Context {
	bg := context.Background()
	return map[string]context.Context{
		"workers=1": bg,
		"workers=N": core.WithSweepWorkers(bg, max(runtime.GOMAXPROCS(0), 2)),
	}
}

func diffGN2(t *testing.T, label string, dev core.Device, s *task.Set, pairs []diffPair) {
	t.Helper()
	for _, p := range pairs {
		ref := p.ref.Analyze(context.Background(), dev, s)
		for name, ctx := range sweepContexts() {
			assertIdentical(t, label+"/"+p.fast.Name()+"/"+name, p.fast.Analyze(ctx, dev, s), ref)
		}
	}
}

// TestDifferentialColdShapes extends the bigref corpus past N = 8 to
// the analyze-cold shapes: Figure-3 Unconstrained and Heterogeneous
// sets at N ∈ {10, 25, 50}, rescaled to target US values that span
// accepts and rejects. Every set has D = T, so the sweep shares its
// last-candidate evidence across tasks on all of them.
func TestDifferentialColdShapes(t *testing.T) {
	dev := core.NewDevice(workload.FigureDeviceColumns)
	targets := map[int][]float64{
		10: {10, 25, 40, 55, 70, 85},
		25: {20, 45, 70},
		50: {30, 60},
	}
	profiles := []func(int) workload.Profile{workload.Unconstrained, workload.Heterogeneous}
	var accepted, rejected int
	for _, n := range []int{10, 25, 50} {
		// The reference build is O(N³) on big.Rat: at N = 50 only the
		// paper's variant is compared, the others stop at N = 25.
		pairs := gn2Pairs()
		if n == 50 {
			pairs = pairs[:1]
		}
		for pi, pf := range profiles {
			for ti, us := range targets[n] {
				r := workload.Rand(uint64(n*1000 + pi*100 + ti))
				s, _ := pf(n).GenerateWithTargetUS(r, us)
				if !core.SharesLastEvidence(core.GN2Test{}, s) {
					t.Fatalf("%s at US %g: D = T set does not share its last-candidate evidence", pf(n).Name, us)
				}
				if (core.GN2Test{}).Analyze(context.Background(), dev, s).Schedulable {
					accepted++
				} else {
					rejected++
				}
				diffGN2(t, fmt.Sprintf("%s/us=%g", pf(n).Name, us), dev, s, pairs)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("corpus must hold both verdicts: %d accepted, %d rejected", accepted, rejected)
	}
}

// tk builds a task from tick values.
func tk(name string, c, d, period int64, a int) task.Task {
	return task.Task{Name: name, C: taskTime(c), D: taskTime(d), T: taskTime(period), A: a}
}

// TestSharedLastEvidenceSwitch pins when the sweep may share the last
// candidate's evidence across tasks, and checks every GN2 variant
// against bigref on sets on both sides of the rule. Sharing needs every
// task in case 1 with Di ≥ Ti at the last valid candidate: a task with
// C > T (so ui > 1 is never a valid λ and it is not in case 1 there), a
// task with Di < Ti (its case-1 β depends on the analysed task, and as
// the analysed task its λk is scaled by Tk/Dk > 1, so its last valid
// candidate is an earlier one) or the extended search (whose per-task
// crossing candidates can lie past the global last one) switch it off.
// CaseTwoBaker and CondTwoNonStrict keep it: the middle case they
// change is unreachable when every task is in case 1, and the
// strictness applies to the shared comparison for every task alike.
func TestSharedLastEvidenceSwitch(t *testing.T) {
	// On 12 to 20 columns these sets range from every task failing to
	// every task accepting, some at the last candidate.
	base := []task.Task{
		tk("a", 30000, 100000, 100000, 6),
		tk("b", 20000, 80000, 80000, 5),
		tk("c", 60000, 120000, 120000, 4),
		tk("d", 10000, 50000, 50000, 7),
	}
	with := func(extra ...task.Task) *task.Set {
		return &task.Set{Tasks: append(append([]task.Task(nil), base...), extra...)}
	}
	cases := []struct {
		name  string
		set   *task.Set
		g     core.GN2Test
		share bool
	}{
		{"paper-shape", with(), core.GN2Test{}, true},
		{"post-period-deadline", with(tk("p", 30000, 90000, 60000, 3)), core.GN2Test{}, true},
		{"c-over-t", with(tk("o", 80000, 90000, 60000, 2)), core.GN2Test{}, false},
		{"constrained-deadline", with(tk("k", 20000, 40000, 70000, 3)), core.GN2Test{}, false},
		{"scaled-light", with(tk("s", 5000, 20000, 90000, 1)), core.GN2Test{}, false},
		{"extended", with(), core.GN2Test{Options: core.GN2Options{ExtendedLambdaSearch: true}}, false},
		{"baker", with(tk("p", 30000, 90000, 60000, 3)), core.GN2Test{Options: core.GN2Options{CaseTwoBaker: true}}, true},
		{"non-strict", with(), core.GN2Test{Options: core.GN2Options{CondTwoNonStrict: true}}, true},
	}
	for _, c := range cases {
		if got := core.SharesLastEvidence(c.g, c.set); got != c.share {
			t.Errorf("%s/%s: shares last evidence = %v, want %v", c.name, c.g.Name(), got, c.share)
		}
		for _, cols := range []int{12, 17, 20} {
			dev := core.NewDevice(cols)
			if c.set.ValidateFor(dev.Columns) != nil {
				t.Fatalf("%s: invalid set", c.name)
			}
			diffGN2(t, fmt.Sprintf("%s/cols=%d", c.name, cols), dev, c.set, gn2Pairs())
		}
	}
}

// TestSharedEvidenceChecksDoNotAlias guards the shared last-candidate
// evidence: every check of a verdict owns its big.Rats, so a caller
// mutating one failing check's LHS or RHS changes no other check.
func TestSharedEvidenceChecksDoNotAlias(t *testing.T) {
	dev := core.NewDevice(workload.FigureDeviceColumns)
	s, _ := workload.Unconstrained(10).GenerateWithTargetUS(workload.Rand(7), 90)
	if !core.SharesLastEvidence(core.GN2Test{}, s) {
		t.Fatal("set does not share its last-candidate evidence")
	}
	for name, ctx := range sweepContexts() {
		snapshot := func(v core.Verdict) []string {
			out := make([]string, len(v.Checks))
			for i, c := range v.Checks {
				out[i] = c.LHS.RatString() + " " + c.RHS.RatString()
			}
			return out
		}
		v := core.GN2Test{}.Analyze(ctx, dev, s)
		want := snapshot(v)
		failing := 0
		for j := range v.Checks {
			if v.Checks[j].Satisfied {
				continue
			}
			failing++
			v := core.GN2Test{}.Analyze(ctx, dev, s)
			v.Checks[j].LHS.SetInt64(-1)
			v.Checks[j].RHS.SetInt64(-2)
			for i, got := range snapshot(v) {
				if i != j && got != want[i] {
					t.Fatalf("%s: mutating check %d changed check %d: %q -> %q", name, j, i, want[i], got)
				}
			}
		}
		if failing < 2 {
			t.Fatalf("%s: %d failing checks, want at least 2 sharing the last evidence", name, failing)
		}
	}
}
