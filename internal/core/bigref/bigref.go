// Package bigref preserves the original, all-big.Rat implementations
// of the DP/GN1/GN2 schedulability tests as a frozen reference build.
//
// internal/core's production kernels run on internal/rat's int64
// fast-path arithmetic; this package is the straight-line big.Rat
// translation of the theorems they must remain equivalent to. It
// exists for exactly two kinds of consumer:
//
//   - the differential suites (internal/core/differential_test.go and
//     its siblings, and the admission churn suite), which assert that
//     the fast path — interval screen, parallel sweep and incremental
//     admit included — produces identical verdicts, Reason strings,
//     AcceptedBy attributions and byte-identical certificates across
//     thousands of generated tasksets; and
//   - the BenchmarkGN2SweepRef/BenchmarkGN1Ref baselines, which record
//     how much the fast path buys (bench-results/BENCH_core.json).
//
// Keep this package boring: no scratch reuse, no hoisting beyond what
// the original code did, one heap rational per intermediate value. Any
// behavioural change here must be mirrored in internal/core and is
// almost certainly wrong — the point of a reference is to not move.
//
// The types implement core.Test with the same Name() strings as their
// fast counterparts so Verdict.Test, composite names and Reason text
// compare byte-for-byte.
package bigref

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
)

// aborted mirrors core's aborted verdict constructor.
func aborted(name string, err error) core.Verdict {
	return core.Verdict{
		Test:        name,
		Schedulable: false,
		Reason:      "analysis aborted: " + err.Error(),
		FailingTask: -1,
		Err:         err,
	}
}

// precheck mirrors core's shared precondition validation.
func precheck(name string, dev core.Device, s *task.Set) (core.Verdict, bool) {
	if err := s.ValidateFor(dev.Columns); err != nil {
		return core.Verdict{
			Test:        name,
			Schedulable: false,
			Reason:      err.Error(),
			FailingTask: -1,
		}, false
	}
	return core.Verdict{}, true
}

func ratFromTicks(t int64) *big.Rat { return new(big.Rat).SetInt64(t) }

func ratInt(v int) *big.Rat { return new(big.Rat).SetInt64(int64(v)) }

var ratOne = big.NewRat(1, 1)

func ratMin(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

func ratMax(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// floorDiv returns floor(a/b) for b != 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// DPTest is the reference build of core.DPTest (Theorem 1).
type DPTest struct {
	RealValuedAlpha bool
}

// Name implements core.Test with the production names.
func (dp DPTest) Name() string {
	if dp.RealValuedAlpha {
		return "DP-real"
	}
	return "DP"
}

// Analyze implements core.Test.
func (dp DPTest) Analyze(ctx context.Context, dev core.Device, s *task.Set) core.Verdict {
	name := dp.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	if !s.ImplicitDeadlines() {
		return core.Verdict{
			Test:        name,
			Schedulable: false,
			Reason:      "DP requires implicit deadlines (D = T)",
			FailingTask: -1,
		}
	}
	slackArea := dev.Columns - s.AMax()
	if !dp.RealValuedAlpha {
		slackArea++
	}
	abnd := ratInt(slackArea)
	us := s.UtilizationS()
	v := core.Verdict{Test: name, Schedulable: true, FailingTask: -1}
	for k, tk := range s.Tasks {
		rhs := new(big.Rat).Sub(ratOne, tk.UtilizationT())
		rhs.Mul(rhs, abnd)
		rhs.Add(rhs, tk.UtilizationS())
		ok := us.Cmp(rhs) <= 0
		v.Checks = append(v.Checks, core.BoundCheck{
			TaskIndex: k,
			LHS:       new(big.Rat).Set(us),
			RHS:       rhs,
			Satisfied: ok,
		})
		if !ok && v.Schedulable {
			v.Schedulable = false
			v.FailingTask = k
			v.Reason = fmt.Sprintf("US(Γ)=%s exceeds bound %s at task %d", us.RatString(), rhs.RatString(), k)
		}
	}
	return v
}

// GN1Test is the reference build of core.GN1Test (Theorem 2).
type GN1Test struct {
	Variant core.GN1Variant
}

// Name implements core.Test with the production names.
func (g GN1Test) Name() string { return g.Variant.String() }

// Analyze implements core.Test.
func (g GN1Test) Analyze(ctx context.Context, dev core.Device, s *task.Set) core.Verdict {
	name := g.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	if !s.ConstrainedDeadlines() {
		return core.Verdict{
			Test:        name,
			Schedulable: false,
			Reason:      "GN1 requires constrained deadlines (D ≤ T)",
			FailingTask: -1,
		}
	}
	v := core.Verdict{Test: name, Schedulable: true, FailingTask: -1}
	for k, tk := range s.Tasks {
		if err := ctx.Err(); err != nil {
			return aborted(name, err)
		}
		lhs, rhs, ok := g.checkTask(dev, s, k)
		v.Checks = append(v.Checks, core.BoundCheck{TaskIndex: k, LHS: lhs, RHS: rhs, Satisfied: ok})
		if !ok && v.Schedulable {
			v.Schedulable = false
			v.FailingTask = k
			v.Reason = fmt.Sprintf("interference bound %s not below slack bound %s for task %d (%s)",
				lhs.RatString(), rhs.RatString(), k, tk.Name)
		}
	}
	return v
}

func (g GN1Test) checkTask(dev core.Device, s *task.Set, k int) (lhs, rhs *big.Rat, ok bool) {
	tk := s.Tasks[k]
	slack := new(big.Rat).Sub(ratOne, new(big.Rat).SetFrac64(int64(tk.C), int64(tk.D)))
	rhs = new(big.Rat).Mul(ratInt(dev.Columns-tk.A+1), slack)
	lhs = new(big.Rat)
	for i, ti := range s.Tasks {
		if i == k {
			continue
		}
		beta := gn1Beta(ti, tk, g.Variant)
		term := new(big.Rat).Mul(ratInt(ti.A), ratMin(beta, slack))
		lhs.Add(lhs, term)
	}
	return lhs, rhs, lhs.Cmp(rhs) < 0
}

func gn1Beta(ti, tk task.Task, variant core.GN1Variant) *big.Rat {
	ni := floorDiv(int64(tk.D)-int64(ti.D), int64(ti.T)) + 1
	if ni < 0 {
		ni = 0
	}
	carryCap := int64(tk.D) - ni*int64(ti.T)
	if carryCap < 0 {
		carryCap = 0
	}
	carry := int64(ti.C)
	if carryCap < carry {
		carry = carryCap
	}
	w := ratFromTicks(ni*int64(ti.C) + carry)
	den := int64(ti.D)
	if variant == core.GN1VariantBCL {
		den = int64(tk.D)
	}
	return w.Quo(w, ratFromTicks(den))
}

// GN2Test is the reference build of core.GN2Test (Theorem 3).
type GN2Test struct {
	Options core.GN2Options
}

// Name implements core.Test with the production names.
func (g GN2Test) Name() string {
	name := "GN2"
	if g.Options.ExtendedLambdaSearch {
		name += "x"
	}
	if g.Options.CondTwoNonStrict {
		name += "-le"
	}
	if g.Options.CaseTwoBaker {
		name += "-baker"
	}
	return name
}

// Analyze implements core.Test.
func (g GN2Test) Analyze(ctx context.Context, dev core.Device, s *task.Set) core.Verdict {
	name := g.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	abnd := ratInt(dev.Columns - s.AMax() + 1)
	amin := ratInt(s.AMin())
	v := core.Verdict{Test: name, Schedulable: true, FailingTask: -1}
	for k := range s.Tasks {
		check, err := g.checkTask(ctx, s, k, abnd, amin)
		if err != nil {
			return aborted(name, err)
		}
		check.TaskIndex = k
		v.Checks = append(v.Checks, check)
		if !check.Satisfied && v.Schedulable {
			v.Schedulable = false
			v.FailingTask = k
			v.Reason = fmt.Sprintf("no λ ≥ C/T satisfies condition 1 or 2 for task %d (%s)",
				k, s.Tasks[k].Name)
		}
	}
	return v
}

func (g GN2Test) checkTask(ctx context.Context, s *task.Set, k int, abnd, amin *big.Rat) (core.BoundCheck, error) {
	tk := s.Tasks[k]
	uk := new(big.Rat).SetFrac64(int64(tk.C), int64(tk.T))
	cands := lambdaCandidates(s, uk)
	if g.Options.ExtendedLambdaSearch {
		cands = g.addCrossingCandidates(s, tk, uk, cands)
	}
	var last core.BoundCheck
	for _, lambda := range cands {
		if err := ctx.Err(); err != nil {
			return core.BoundCheck{}, err
		}
		lambdaK := new(big.Rat).Set(lambda)
		if tk.T > tk.D {
			lambdaK.Mul(lambdaK, new(big.Rat).SetFrac64(int64(tk.T), int64(tk.D)))
		}
		oneMinus := new(big.Rat).Sub(ratOne, lambdaK)
		if oneMinus.Sign() < 0 {
			continue // λk > 1: outside the theorem's effective range (T3-RANGE)
		}

		betas := make([]*big.Rat, len(s.Tasks))
		for i, ti := range s.Tasks {
			betas[i] = g.beta(ti, tk, lambda)
		}

		sum1 := new(big.Rat)
		for i, ti := range s.Tasks {
			sum1.Add(sum1, new(big.Rat).Mul(ratInt(ti.A), ratMin(betas[i], oneMinus)))
		}
		rhs1 := new(big.Rat).Mul(abnd, oneMinus)
		if sum1.Cmp(rhs1) < 0 {
			return core.BoundCheck{LHS: sum1, RHS: rhs1, Satisfied: true, Lambda: lambda, Condition: 1}, nil
		}

		sum2 := new(big.Rat)
		for i, ti := range s.Tasks {
			sum2.Add(sum2, new(big.Rat).Mul(ratInt(ti.A), ratMin(betas[i], ratOne)))
		}
		rhs2 := new(big.Rat).Sub(abnd, amin)
		rhs2.Mul(rhs2, oneMinus)
		rhs2.Add(rhs2, amin)
		cmp := sum2.Cmp(rhs2)
		if cmp < 0 || (g.Options.CondTwoNonStrict && cmp == 0) {
			return core.BoundCheck{LHS: sum2, RHS: rhs2, Satisfied: true, Lambda: lambda, Condition: 2}, nil
		}
		last = core.BoundCheck{LHS: sum2, RHS: rhs2, Satisfied: false}
	}
	return last, nil
}

func (g GN2Test) beta(ti, tk task.Task, lambda *big.Rat) *big.Rat {
	ui := new(big.Rat).SetFrac64(int64(ti.C), int64(ti.T))
	if ui.Cmp(lambda) <= 0 {
		alt := new(big.Rat).Sub(ratOne, new(big.Rat).SetFrac64(int64(ti.D), int64(tk.D)))
		alt.Mul(alt, ui)
		alt.Add(alt, new(big.Rat).SetFrac64(int64(ti.C), int64(tk.D)))
		return ratMax(ui, alt)
	}
	densI := new(big.Rat).SetFrac64(int64(ti.C), int64(ti.D))
	if lambda.Cmp(densI) >= 0 {
		if g.Options.CaseTwoBaker {
			return densI
		}
		return new(big.Rat).SetFrac64(int64(tk.C), int64(tk.T))
	}
	carry := new(big.Rat).Mul(lambda, ratFromTicks(int64(ti.D)))
	carry.Sub(ratFromTicks(int64(ti.C)), carry)
	carry.Quo(carry, ratFromTicks(int64(tk.D)))
	return new(big.Rat).Add(ui, carry)
}

func lambdaCandidates(s *task.Set, uk *big.Rat) []*big.Rat {
	cands := []*big.Rat{new(big.Rat).Set(uk)}
	add := func(r *big.Rat) {
		if r.Cmp(uk) >= 0 {
			cands = append(cands, r)
		}
	}
	for _, ti := range s.Tasks {
		add(new(big.Rat).SetFrac64(int64(ti.C), int64(ti.T)))
		if ti.D > ti.T {
			add(new(big.Rat).SetFrac64(int64(ti.C), int64(ti.D)))
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Cmp(cands[j]) < 0 })
	uniq := cands[:1]
	for _, c := range cands[1:] {
		if c.Cmp(uniq[len(uniq)-1]) != 0 {
			uniq = append(uniq, c)
		}
	}
	return uniq
}

func (g GN2Test) addCrossingCandidates(s *task.Set, tk task.Task, uk *big.Rat, cands []*big.Rat) []*big.Rat {
	m := ratOne
	if tk.T > tk.D {
		m = new(big.Rat).SetFrac64(int64(tk.T), int64(tk.D))
	}
	lambdaMax := new(big.Rat).Inv(new(big.Rat).Set(m))
	add := func(r *big.Rat) {
		if r != nil && r.Cmp(uk) >= 0 && r.Cmp(lambdaMax) <= 0 {
			cands = append(cands, r)
		}
	}
	for _, ti := range s.Tasks {
		ui := new(big.Rat).SetFrac64(int64(ti.C), int64(ti.T))
		b := caseOneBeta(ti, tk)
		lam := new(big.Rat).Sub(ratOne, b)
		lam.Quo(lam, m)
		if lam.Cmp(ui) >= 0 {
			add(lam)
		}
		dRatio := new(big.Rat).SetFrac64(int64(ti.D), int64(tk.D))
		den := new(big.Rat).Sub(m, dRatio)
		if den.Sign() != 0 {
			num := new(big.Rat).Sub(ratOne, ui)
			num.Sub(num, new(big.Rat).SetFrac64(int64(ti.C), int64(tk.D)))
			lam3 := new(big.Rat).Quo(num, den)
			if lam3.Cmp(ui) < 0 && lam3.Cmp(new(big.Rat).SetFrac64(int64(ti.C), int64(ti.D))) < 0 {
				add(lam3)
			}
		}
		lam1 := new(big.Rat).Sub(ratOne, ui)
		lam1.Mul(lam1, ratFromTicks(int64(tk.D)))
		lam1.Sub(ratFromTicks(int64(ti.C)), lam1)
		lam1.Quo(lam1, ratFromTicks(int64(ti.D)))
		if lam1.Cmp(ui) < 0 && lam1.Cmp(new(big.Rat).SetFrac64(int64(ti.C), int64(ti.D))) < 0 {
			add(lam1)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Cmp(cands[j]) < 0 })
	uniq := cands[:1]
	for _, c := range cands[1:] {
		if c.Cmp(uniq[len(uniq)-1]) != 0 {
			uniq = append(uniq, c)
		}
	}
	return uniq
}

func caseOneBeta(ti, tk task.Task) *big.Rat {
	ui := new(big.Rat).SetFrac64(int64(ti.C), int64(ti.T))
	alt := new(big.Rat).Sub(ratOne, new(big.Rat).SetFrac64(int64(ti.D), int64(tk.D)))
	alt.Mul(alt, ui)
	alt.Add(alt, new(big.Rat).SetFrac64(int64(ti.C), int64(tk.D)))
	return ratMax(ui, alt)
}

// ForNF returns the reference-build composite of all EDF-NF-valid
// tests, mirroring core.ForNF (same composite name).
func ForNF() core.Composite {
	return core.Composite{Tests: []core.Test{DPTest{}, GN1Test{}, GN2Test{}}}
}

// ForFkF returns the reference-build composite of the EDF-FkF-valid
// tests, mirroring core.ForFkF.
func ForFkF() core.Composite {
	return core.Composite{Tests: []core.Test{DPTest{}, GN2Test{}}}
}
