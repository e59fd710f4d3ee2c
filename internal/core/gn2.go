package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"

	"fpgasched/internal/interval"
	"fpgasched/internal/rat"
	"fpgasched/internal/task"
)

// GN2Options configures the GN2 test's resolution of two published
// ambiguities (DESIGN.md items T3-STRICT and L7-CASE2). The zero value is
// the configuration that reproduces the paper's reported verdicts for
// Tables 1–3.
type GN2Options struct {
	// CondTwoNonStrict evaluates Theorem 3's condition 2 with the printed
	// "≤" instead of the strict "<" needed to reproduce the paper's
	// Table-1 rejection (the Table-1 taskset meets condition 2 with exact
	// equality at λ = 0.19 yet is reported rejected). The default
	// (false) uses the strict comparison.
	CondTwoNonStrict bool
	// CaseTwoBaker replaces the printed middle-case value Ck/Tk of
	// Lemma 7's βλk(i) with the Baker-consistent Ci/Di. The case fires
	// only for tasks with post-period deadlines (Di > Ti), which the
	// paper's evaluation never exercises. The default (false) implements
	// the printed value.
	CaseTwoBaker bool
	// ExtendedLambdaSearch adds the min-crossing breakpoints to the λ
	// candidate set. Theorem 3's remark claims only λ ∈ {Ci/Ti} ∪
	// {Ci/Di : Di > Ti} matter, but condition 1's test function
	// Σ Ai·min(βλk(i), 1−λk) − Abnd·(1−λk) is piecewise linear with
	// additional breakpoints where βλk(i) crosses 1−λk (and condition
	// 2's where βλk(i) crosses 1); its minimum can sit at such a
	// crossing. Evaluating at more λ values is sound — any single λ with
	// λk ≤ 1 certifies schedulability per the proof — so the extended
	// search accepts a superset of the published test (property-tested).
	// Default off to match the paper.
	ExtendedLambdaSearch bool
}

// GN2Test is the paper's Theorem 3: a busy-interval (problem-window
// extension) test in the style of Baker's BAK2, valid for EDF-FkF and —
// since EDF-NF dominates EDF-FkF — for EDF-NF as well.
//
// A taskset Γ is schedulable if for every task τk there exists
// λ ≥ Ck/Tk such that, with λk = λ·max(1, Tk/Dk) and
// Abnd = A(H) − Amax + 1, at least one of
//
//	(1)  Σ_i Ai·min(βλk(i), 1 − λk)  <  Abnd·(1 − λk)
//	(2)  Σ_i Ai·min(βλk(i), 1)      <  (Abnd − Amin)·(1 − λk) + Amin
//
// holds, where βλk(i) is Lemma 7's bound on the fraction of a maximal
// τλk-busy interval during which τi can execute:
//
//	βλk(i) = max(Ci/Ti, Ci/Ti·(1 − Di/Dk) + Ci/Dk)   if Ci/Ti ≤ λ
//	       = Ck/Tk (printed; Ci/Di under CaseTwoBaker) if Ci/Ti > λ ∧ λ ≥ Ci/Di
//	       = Ci/Ti + (Ci − λ·Di)/Dk                    if Ci/Ti > λ ∧ λ < Ci/Di
//
// Only finitely many λ need be considered (the theorem's O(N³) claim):
// the minimum point Ck/Tk and the discontinuities of βλk, i.e. every
// Ci/Ti, and Ci/Di for tasks with Di > Ti (the only tasks for which the
// middle case is reachable).
//
// The sums run over all tasks including i = k, as in the theorem
// statement and its proof (the busy interval contains τk's own
// execution).
//
// The implementation runs on internal/rat's exact fast-path arithmetic
// and is equivalent, verdict for verdict and certificate byte for
// byte, to the all-big.Rat reference build in internal/core/bigref
// (enforced by the differential suite). Per-candidate invariants — the
// λ-independent case-1 βs, the sorted global candidate list, the λk
// multiplier — are hoisted out of the sweep, and the two condition
// sums accumulate in reused scratch, so a sweep allocates O(N) heap
// rationals (the certificate values) instead of O(N³).
type GN2Test struct {
	Options GN2Options
}

// Name implements Test. Each option flag contributes a suffix so every
// distinct configuration carries a distinct name — the engine's verdict
// cache keys on Name(), so two configurations sharing one name would
// unsoundly share cached verdicts.
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

// Analyze implements Test. The λ sweep is the O(N³) heart of the test
// (N candidates × N tasks × O(N) sum per condition), so cancellation is
// polled inside check's candidate loop: a disconnected client
// aborts a large analysis mid-sweep, not after it.
//
// The per-task sweeps are independent, so when the context carries a
// sweep-worker budget (WithSweepWorkers; the engine threads
// engine.Config.SweepWorkers through), tasks are checked concurrently
// under that bound, each worker with its own scratch. The verdict is
// identical for every worker count: all tasks are always evaluated and
// the failing-task attribution is resolved in task order afterwards.
func (g GN2Test) Analyze(ctx context.Context, dev Device, s *task.Set) Verdict {
	name := g.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	abnd := rat.FromInt(int64(dev.Columns - s.AMax() + 1))
	amin := rat.FromInt(int64(s.AMin()))
	sw := g.newSweep(s, abnd, amin, screenStatsFrom(ctx))
	sw.enclose()
	n := len(s.Tasks)
	checks := make([]BoundCheck, n)

	workers := SweepWorkers(ctx)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := sw.newScratch()
		for k := 0; k < n; k++ {
			chk, err := sw.check(ctx, k, sc)
			if err != nil {
				return aborted(name, err)
			}
			checks[k] = chk
		}
	} else {
		var (
			next  atomic.Int64
			stop  atomic.Bool
			once  sync.Once
			first error
			wg    sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := sw.newScratch()
				for !stop.Load() {
					k := int(next.Add(1)) - 1
					if k >= n {
						return
					}
					chk, err := sw.check(ctx, k, sc)
					if err != nil {
						once.Do(func() { first = err })
						stop.Store(true)
						return
					}
					checks[k] = chk
				}
			}()
		}
		wg.Wait()
		if first != nil {
			return aborted(name, first)
		}
	}

	v := Verdict{Test: name, Schedulable: true, FailingTask: -1, Checks: checks}
	for k := range checks {
		checks[k].TaskIndex = k
		if !checks[k].Satisfied && v.Schedulable {
			v.Schedulable = false
			v.FailingTask = k
			v.Reason = fmt.Sprintf("no λ ≥ C/T satisfies condition 1 or 2 for task %d (%s)",
				k, s.Tasks[k].Name)
		}
	}
	return v
}

// gn2Sweep holds everything about one (device, taskset) sweep that is
// shared by — and immutable across — all per-task checks: the exact
// per-task utilizations, densities and areas, the device bounds, the
// global sorted λ candidate list and its per-task case thresholds, and
// the last valid candidate's evidence when every task shares it, and
// the interval screen's enclosures of those invariants. Sweep workers
// read it concurrently; the lazily built parts sit behind sync.Once.
type gn2Sweep struct {
	g             GN2Test
	s             *task.Set
	abnd, amin    rat.R
	abndMinusAmin rat.R
	ui            []rat.R // Ci/Ti
	dens          []rat.R // Ci/Di
	area          []rat.R // Ai
	cands         []rat.R // sorted, deduplicated {Ci/Ti} ∪ {Ci/Di : Di > Ti}
	// constrained lists the tasks with Di < Ti, the only ones whose
	// case-1 β depends on the analysed task (case1Beta).
	constrained []int
	// shareLast holds when the last valid candidate's evaluation is the
	// same for every task (see lastCheck): no extended search, and every
	// task has Di ≥ Ti and Ci ≤ Ti.
	shareLast bool

	// Candidate index (indexOnce): per task i, the first global
	// candidate at which its β switches to case 1 (λ ≥ Ci/Ti) and to the
	// middle case (λ ≥ Ci/Di), and the end of the λ ≤ 1 prefix. Task k's
	// candidates are the suffix from thrU[k] (uk is a member), so an
	// unextended check compares global indices against these directly.
	indexOnce  sync.Once
	thrU, thrD []int
	validEnd   int

	// The shared last-candidate evidence (lastOnce; shareLast only).
	lastOnce sync.Once
	last     BoundCheck

	// The screen's counter sink (may be nil), flushed once per task
	// check.
	stats *ScreenStats

	// Interval-screen enclosures (encloseOnce): certified float64
	// enclosures of the sweep invariants, so the candidate loop touches
	// no exact arithmetic beyond the λk range check until a candidate
	// straddles a bound.
	encloseOnce    sync.Once
	fui            []interval.I // encloses ui
	fdens          []interval.I // encloses dens
	farea          []float64    // Ai exactly (small integers)
	fC             []interval.I // encloses Ci (ticks)
	fD             []interval.I // encloses Di (ticks)
	fabnd          interval.I
	famin          interval.I
	fabndMinusAmin interval.I
}

// newSweep precomputes the sweep invariants: per-task rationals once
// per set (not once per candidate), and the paper's λ candidate set
// sorted and deduplicated once — each task's candidate list is then a
// suffix of it, since task k considers exactly the candidates ≥ Ck/Tk
// and Ck/Tk itself is a member. Screen counters are flushed to stats,
// which may be nil.
func (g GN2Test) newSweep(s *task.Set, abnd, amin rat.R, stats *ScreenStats) *gn2Sweep {
	n := len(s.Tasks)
	sw := &gn2Sweep{
		g:             g,
		s:             s,
		abnd:          abnd,
		amin:          amin,
		abndMinusAmin: abnd.Sub(amin),
		ui:            make([]rat.R, n),
		dens:          make([]rat.R, n),
		area:          make([]rat.R, n),
		cands:         make([]rat.R, 0, 2*n),
		shareLast:     !g.Options.ExtendedLambdaSearch,
		stats:         stats,
	}
	for i, ti := range s.Tasks {
		sw.ui[i] = rat.FromFrac(int64(ti.C), int64(ti.T))
		sw.dens[i] = rat.FromFrac(int64(ti.C), int64(ti.D))
		sw.area[i] = rat.FromInt(int64(ti.A))
		sw.cands = append(sw.cands, sw.ui[i])
		if ti.D > ti.T {
			sw.cands = append(sw.cands, sw.dens[i])
		}
		if ti.D < ti.T {
			sw.constrained = append(sw.constrained, i)
		}
		if ti.D < ti.T || ti.C > ti.T {
			sw.shareLast = false
		}
	}
	sw.cands = sortDedupR(sw.cands)
	return sw
}

// index builds the candidate index once per sweep, on first use, so
// that the incremental admit path, which checks one task on a fresh
// sweep, pays for it only when it runs a sweep loop.
func (sw *gn2Sweep) index() {
	sw.indexOnce.Do(func() {
		n := len(sw.ui)
		sw.thrU = make([]int, n)
		sw.thrD = make([]int, n)
		for i := range sw.ui {
			sw.thrU[i] = lowerBoundR(sw.cands, sw.ui[i])
			sw.thrD[i] = lowerBoundR(sw.cands, sw.dens[i])
		}
		sw.validEnd = sort.Search(len(sw.cands), func(j int) bool { return sw.cands[j].Cmp(rat.One) > 0 })
	})
}

// enclose builds the float64 enclosures of every sweep invariant once
// per sweep, before the first screen reads them (newScratch requires
// them), so that an incremental admit that decides every task exactly
// never pays for them.
func (sw *gn2Sweep) enclose() {
	sw.encloseOnce.Do(func() {
		n := len(sw.s.Tasks)
		sw.fui = make([]interval.I, n)
		sw.fdens = make([]interval.I, n)
		sw.farea = make([]float64, n)
		sw.fC = make([]interval.I, n)
		sw.fD = make([]interval.I, n)
		for i, ti := range sw.s.Tasks {
			sw.fui[i] = interval.FromRat(sw.ui[i])
			sw.fdens[i] = interval.FromRat(sw.dens[i])
			sw.farea[i] = float64(ti.A)
			sw.fC[i] = interval.FromInt(int64(ti.C))
			sw.fD[i] = interval.FromInt(int64(ti.D))
		}
		sw.fabnd = interval.FromRat(sw.abnd)
		sw.famin = interval.FromRat(sw.amin)
		sw.fabndMinusAmin = interval.FromRat(sw.abndMinusAmin)
	})
}

// case1Beta is Lemma 7's case-1 βλk(i) = max(ui, ui·(1 − Di/Dk) + Ci/Dk)
// for a task with utilization ui, where dk is the analysed task's
// deadline. The second term equals ui + Ci·(Ti − Di)/(Ti·Dk), so the
// maximum is ui itself whenever Di ≥ Ti — every task of the paper's
// sets — and the second term, strictly larger, whenever Di < Ti.
func case1Beta(ti task.Task, ui rat.R, dk int64) rat.R {
	if ti.D >= ti.T {
		return ui
	}
	return rat.One.Sub(rat.FromFrac(int64(ti.D), dk)).Mul(ui).Add(rat.FromFrac(int64(ti.C), dk))
}

// beta1 is case1Beta on the sweep's arrays: the one source of the
// case-1 β for the full sweep and the incremental admit.
func (sw *gn2Sweep) beta1(i, k int) rat.R {
	return case1Beta(sw.s.Tasks[i], sw.ui[i], int64(sw.s.Tasks[k].D))
}

// gn2Scratch is the per-worker reusable state: the case-1 βs of the
// task under analysis, the extended-search candidate buffer, and the
// exact sum accumulators. Nothing in it survives a task check except
// its capacity and the k-independent case-1 entries.
type gn2Scratch struct {
	b1         []rat.R // case-1 β per interfering task, for the current k
	cand       []rat.R // extended-search candidate merge buffer
	sum1, sum2 *rat.Acc
	last       *rat.Acc // condition-2 LHS of the last tried candidate

	// Screen scratch: enclosures of the case-1 βs, the case-3 β
	// enclosure p − q·λ with p = ui + Ci/Dk and q = Di/Dk hoisted per
	// task k (filled only for tasks that can reach case 3), and the
	// extended search's per-task case thresholds over its merged
	// candidate list.
	fb1, fp, fq []interval.I
	thrU, thrD  []int
}

// newScratch sizes a worker's scratch and fills the case-1 entries of
// every task with Di ≥ Ti, which are the same for every k. The
// enclosures must have been built (enclose).
func (sw *gn2Sweep) newScratch() *gn2Scratch {
	n := len(sw.s.Tasks)
	sc := &gn2Scratch{
		b1:   append([]rat.R(nil), sw.ui...),
		sum1: new(rat.Acc),
		sum2: new(rat.Acc),
		last: new(rat.Acc),
		fb1:  append([]interval.I(nil), sw.fui...),
		fp:   make([]interval.I, n),
		fq:   make([]interval.I, n),
	}
	if sw.g.Options.ExtendedLambdaSearch {
		sc.thrU = make([]int, n)
		sc.thrD = make([]int, n)
	}
	return sc
}

// gn2Task is one task check's view of its candidates: cands[lo:end) are
// the λ values task k tries, in order (λ ≥ uk and λk ≤ 1), and thrU/thrD
// index, in cands, the first candidate at which each interfering task's
// β switches to case 1 and to the middle case.
type gn2Task struct {
	k          int
	cands      []rat.R
	lo, end    int
	thrU, thrD []int
	scaled     bool
	mK         rat.R // Tk/Dk when scaled
}

// oneMinus is 1 − λk for candidate ci, with λk = λ·max(1, Tk/Dk).
func (t *gn2Task) oneMinus(ci int) rat.R {
	if t.scaled {
		return rat.One.Sub(t.cands[ci].Mul(t.mK))
	}
	return rat.One.Sub(t.cands[ci])
}

// view fills the scratch for task k — the k-dependent case-1 βs, their
// enclosures and the case-3 enclosure coefficients — and returns its
// candidate view. The unextended view reads the global list and index
// directly; the extended search merges its own list and searches its
// own thresholds.
func (sw *gn2Sweep) view(k int, sc *gn2Scratch) gn2Task {
	for _, i := range sw.constrained {
		sc.b1[i] = sw.beta1(i, k)
		sc.fb1[i] = interval.FromRat(sc.b1[i])
	}
	tk := sw.s.Tasks[k]
	t := gn2Task{k: k, scaled: tk.T > tk.D}
	if t.scaled {
		t.mK = rat.FromFrac(int64(tk.T), int64(tk.D))
	}

	sw.index()
	if sw.g.Options.ExtendedLambdaSearch {
		t.cands = sw.extendedCandidatesFor(k, sc, sw.cands[sw.thrU[k]:])
		for i := range sw.ui {
			sc.thrU[i] = lowerBoundR(t.cands, sw.ui[i])
			sc.thrD[i] = lowerBoundR(t.cands, sw.dens[i])
		}
		t.thrU, t.thrD = sc.thrU, sc.thrD
	} else {
		t.cands, t.lo, t.thrU, t.thrD = sw.cands, sw.thrU[k], sw.thrU, sw.thrD
	}
	// λk increases along the sorted list, so the valid candidates
	// (λk ≤ 1) form a prefix of the suffix; an unscaled unextended check
	// shares the global end.
	if t.scaled || sw.g.Options.ExtendedLambdaSearch {
		t.end = t.lo + sort.Search(len(t.cands)-t.lo, func(j int) bool { return t.oneMinus(t.lo+j).Sign() < 0 })
	} else {
		t.end = max(sw.validEnd, t.lo)
	}
	// Case 3 needs λ < min(Ci/Ti, Ci/Di), so only tasks whose thresholds
	// lie past the first candidate ever select it; the screens read
	// fp/fq for no other task.
	fDk := sw.fD[k]
	for i := range sw.ui {
		if min(t.thrU[i], t.thrD[i]) > t.lo {
			sc.fp[i] = sw.fui[i].Add(sw.fC[i].Quo(fDk))
			sc.fq[i] = sw.fD[i].Quo(fDk)
		}
	}
	return t
}

// check searches task k's λ candidates for one that satisfies condition
// 1 or condition 2. It polls ctx once per candidate (each candidate
// evaluation is O(N) exact work) and returns ctx's error when cancelled
// mid-sweep. Heap rationals are allocated only for the returned
// BoundCheck; every intermediate value lives in sc or on the stack.
//
// λ > 1/max(1, Tk/Dk), i.e. λk > 1, is never tried: it makes the
// proof's Lemma-9 instantiation (x = (1−λk)δ > 0) vacuous, so condition
// 1 would degenerate to the meaningless "ΣAi > Abnd" and certify
// nothing. Such λ are outside the theorem's effective range (DESIGN.md
// item T3-RANGE, found by the dense-λ completeness test).
//
// The certified interval pre-filter sits in front of the exact kernel.
// Every candidate's conditions are first evaluated on float64
// enclosures; a candidate whose condition-1 AND condition-2 intervals
// certainly violate cannot be the accepting one (the enclosure
// invariant makes "certainly violated" imply "exactly violated"), so
// its exact evaluation is skipped. Any other candidate —
// straddling, or certainly satisfied — escalates to evalCandidate, so
// the first accepting candidate, its certificate values, and the
// task-order failing attribution are byte-identical to an all-exact
// sweep (enforced against the big.Rat reference build by the
// differential suite).
func (sw *gn2Sweep) check(ctx context.Context, k int, sc *gn2Scratch) (BoundCheck, error) {
	var decided, escalated uint64
	defer func() { sw.stats.add(decided, escalated) }()

	t := sw.view(k, sc)
	if t.end <= t.lo {
		return BoundCheck{}, nil
	}
	lastIdx := t.end - 1

	var lastRHS rat.R
	lastExactIdx := -1
	// Range-level screen in front of the per-candidate screen: before
	// building full interval sums candidate by candidate, try to certify
	// that a whole block of consecutive candidates violates both
	// conditions, using one interval evaluation over the block's λ hull.
	// A certified block is disposed of in O(N) total instead of O(N) per
	// candidate. Blocks grow while certification keeps succeeding and
	// reset when it fails, so the overhead on never-certifiable sweeps is
	// bounded by one range evaluation per blockMin candidates. The
	// per-candidate path below is unchanged, so escalation order — and
	// with it the first accepting candidate — is preserved.
	ci := t.lo
	block := gn2RangeBlockMin
	for ci < t.end {
		if err := ctx.Err(); err != nil {
			return BoundCheck{}, err
		}
		if t.end-ci >= block && sw.rangeViolated(&t, ci, ci+block, sc) {
			decided += uint64(block)
			ci += block
			if block < gn2RangeBlockMax {
				block *= 2
			}
			continue
		}
		end := min(ci+block, t.end)
		block = gn2RangeBlockMin
		for ; ci < end; ci++ {
			if err := ctx.Err(); err != nil {
				return BoundCheck{}, err
			}
			if ci == lastIdx && sw.shareLast {
				// The last candidate ends the check either way: its
				// evaluation is the same for every task, so it is
				// computed once per sweep. It counts as escalated, as a
				// re-derived screened-out last one does.
				escalated++
				return sw.lastCheck(sc), nil
			}
			oneMinus := t.oneMinus(ci)
			if sw.candidateViolated(&t, ci, oneMinus, sc) {
				decided++
				continue
			}
			escalated++
			chk, rhs2, accepted := sw.evalCandidate(k, t.cands[ci], oneMinus, sc)
			if accepted {
				return chk, nil
			}
			lastRHS = rhs2
			lastExactIdx = ci
		}
	}
	if lastExactIdx != lastIdx {
		// No candidate accepted and the last tried one was screened
		// out — but the failing certificate carries exactly its
		// condition-2 evidence. Re-derive it with the exact kernel (it
		// migrates from decided to escalated: its exact values were
		// needed after all). Acceptance here is impossible for a sound
		// screen, but the exact kernel keeps authority if it happens.
		decided--
		escalated++
		if sw.shareLast {
			return sw.lastCheck(sc), nil
		}
		chk, rhs2, accepted := sw.evalCandidate(k, t.cands[lastIdx], t.oneMinus(lastIdx), sc)
		if accepted {
			return chk, nil
		}
		lastRHS = rhs2
	}
	return BoundCheck{LHS: sc.last.Rat(), RHS: lastRHS.Rat(), Satisfied: false}, nil
}

// lastCheck returns the evidence at the last valid global candidate λ*
// on a sweep with shareLast, in fresh big.Rats the caller owns. Every
// ui ≤ 1 is a candidate, so ui ≤ λ*: every task is in case 1 there, with
// β = ui whatever the analysed task since Di ≥ Ti; every task is
// unscaled, so λk = λ* and both right-hand sides are the same too. The evaluation — an acceptance or the failing
// certificate's condition-2 evidence — is thus identical for every k and
// runs once per sweep, on the scratch of the first worker to need it
// (its case-1 entries are all ui: there are no constrained tasks).
func (sw *gn2Sweep) lastCheck(sc *gn2Scratch) BoundCheck {
	sw.lastOnce.Do(func() {
		lambda := sw.cands[sw.validEnd-1]
		chk, rhs2, accepted := sw.evalCandidate(0, lambda, rat.One.Sub(lambda), sc)
		if !accepted {
			chk = BoundCheck{LHS: sc.last.Rat(), RHS: rhs2.Rat()}
		}
		sw.last = chk
	})
	chk := sw.last
	chk.LHS = new(big.Rat).Set(chk.LHS)
	chk.RHS = new(big.Rat).Set(chk.RHS)
	if chk.Lambda != nil {
		chk.Lambda = new(big.Rat).Set(chk.Lambda)
	}
	return chk
}

// evalCandidate evaluates conditions 1 and 2 exactly for one λ
// candidate (whose λk ≤ 1 the caller has established). On acceptance it
// returns the satisfied BoundCheck. Otherwise it parks the condition-2
// LHS in sc.last and returns the condition-2 RHS, which together form
// the failing certificate's evidence if this turns out to be the last
// candidate. Every escalated candidate of the sweep funnels through
// here, so a candidate is evaluated identically no matter how it was
// reached — the screen cannot perturb certificates.
func (sw *gn2Sweep) evalCandidate(k int, lambda, oneMinus rat.R, sc *gn2Scratch) (BoundCheck, rat.R, bool) {
	uk := sw.ui[k]
	dk := int64(sw.s.Tasks[k].D)

	// One pass accumulates both condition sums exactly; β is
	// selected per task from the hoisted case-1 value or computed
	// in-place for the λ-dependent cases.
	sc.sum1.Reset()
	sc.sum2.Reset()
	for i := range sw.ui {
		var beta rat.R
		ui := sw.ui[i]
		if ui.Cmp(lambda) <= 0 {
			beta = sc.b1[i]
		} else if lambda.Cmp(sw.dens[i]) >= 0 {
			// Middle case: reachable only when Ci/Di < λ < Ci/Ti,
			// i.e. Di > Ti. Printed value is Ck/Tk (L7-CASE2);
			// Baker's TR uses a task-i quantity, approximated here
			// by Ci/Di when selected.
			if sw.g.Options.CaseTwoBaker {
				beta = sw.dens[i]
			} else {
				beta = uk
			}
		} else {
			// Ci/Ti + (Ci − λ·Di)/Dk.
			ti := sw.s.Tasks[i]
			carry := rat.FromInt(int64(ti.C)).Sub(lambda.Mul(rat.FromInt(int64(ti.D)))).Quo(rat.FromInt(dk))
			beta = ui.Add(carry)
		}
		sc.sum1.Add(sw.area[i].Mul(rat.Min(beta, oneMinus)))
		sc.sum2.Add(sw.area[i].Mul(rat.Min(beta, rat.One)))
	}

	// Condition 1: Σ Ai·min(β, 1−λk) < Abnd·(1−λk), strict.
	rhs1 := sw.abnd.Mul(oneMinus)
	if sc.sum1.Cmp(rhs1) < 0 {
		return BoundCheck{LHS: sc.sum1.Rat(), RHS: rhs1.Rat(), Satisfied: true, Lambda: lambda.Rat(), Condition: 1}, rat.R{}, true
	}

	// Condition 2: Σ Ai·min(β, 1) vs (Abnd−Amin)·(1−λk) + Amin.
	rhs2 := sw.abndMinusAmin.Mul(oneMinus).Add(sw.amin)
	cmp := sc.sum2.Cmp(rhs2)
	if cmp < 0 || (sw.g.Options.CondTwoNonStrict && cmp == 0) {
		return BoundCheck{LHS: sc.sum2.Rat(), RHS: rhs2.Rat(), Satisfied: true, Lambda: lambda.Rat(), Condition: 2}, rat.R{}, true
	}
	// Keep the failed condition-2 evidence without copying: swap
	// the accumulator with the scratch's holding slot.
	sc.sum2, sc.last = sc.last, sc.sum2
	return BoundCheck{}, rhs2, false
}

// oneIv is condition 2's constant cap as an exact interval.
var oneIv = interval.Point(1)

// violatesBoth reports whether enclosures s1 and s2 of the two
// condition sums certainly violate both conditions at the enclosed
// 1 − λk: condition 1 is strict "<" (violated ⇔ ≥), condition 2's
// violation depends on the strictness option. Every screen — per
// candidate, per range, and the incremental admit's — decides through
// here.
func (sw *gn2Sweep) violatesBoth(s1, s2, fOneMinus interval.I) bool {
	if !s1.AllGreaterEq(sw.fabnd.Mul(fOneMinus)) {
		return false
	}
	frhs2 := sw.fabndMinusAmin.Mul(fOneMinus).Add(sw.famin)
	if sw.g.Options.CondTwoNonStrict {
		return s2.AllGreater(frhs2)
	}
	return s2.AllGreaterEq(frhs2)
}

// midBeta encloses the middle-case β of task i for the analysed task k.
func (sw *gn2Sweep) midBeta(i, k int) interval.I {
	if sw.g.Options.CaseTwoBaker {
		return sw.fdens[i]
	}
	return sw.fui[k]
}

// candidateViolated is the per-candidate screen: it evaluates both
// condition sums at cands[ci] on enclosures, selecting each task's β
// case by integer comparison with the thresholds — bit-identically to
// evalCandidate's exact comparisons, since the list is sorted.
func (sw *gn2Sweep) candidateViolated(t *gn2Task, ci int, oneMinus rat.R, sc *gn2Scratch) bool {
	fLambda := interval.FromRat(t.cands[ci])
	fOneMinus := interval.FromRat(oneMinus)
	var s1, s2 interval.Acc
	for i := range sw.ui {
		var fb interval.I
		switch {
		case ci >= t.thrU[i]:
			fb = sc.fb1[i]
		case ci >= t.thrD[i]:
			fb = sw.midBeta(i, t.k)
		default:
			fb = sc.fp[i].Sub(sc.fq[i].Mul(fLambda))
		}
		s1.AddScaled(sw.farea[i], interval.Min(fb, fOneMinus))
		s2.AddScaled(sw.farea[i], interval.Min(fb, oneIv))
	}
	return sw.violatesBoth(s1.I(), s2.I(), fOneMinus)
}

// gn2RangeBlockMin/Max bound the range screen's block sizes: blocks
// start at Min (so a failed certification costs at most 1/Min of the
// per-candidate work that follows), double on success, and cap at Max.
const (
	gn2RangeBlockMin = 8
	gn2RangeBlockMax = 1024
)

// rangeViolated certifies, with one interval evaluation, that every
// candidate in cands[lo:hi) violates both conditions for task k — in
// which case the whole block can be counted decided without building
// per-candidate sums. λ is enclosed by the hull of the block's
// endpoints (the list is sorted), 1−λk by 1 − mK·λ over that hull, and
// each task's β by the hull of every case value the block's indices can
// select (the β case switches at the exact index thresholds t.thrU/thrD,
// so case selection per index stays exact). For any specific λ in the
// block, each exact quantity lies inside its enclosure, so LHS(λ) ≥
// lo(sum) and RHS(λ) ≤ hi(rhs); lo(sum) ≥ hi(rhs) for both conditions
// therefore proves every candidate fails — the same soundness argument
// as the per-candidate screen, lifted to a range. It can only return
// false negatives (a violating block it cannot certify), never screen
// out an accepting candidate.
func (sw *gn2Sweep) rangeViolated(t *gn2Task, lo, hi int, sc *gn2Scratch) bool {
	fLambda := interval.Hull(interval.FromRat(t.cands[lo]), interval.FromRat(t.cands[hi-1]))
	fOneMinus := oneIv.Sub(fLambda)
	if t.scaled {
		fOneMinus = oneIv.Sub(interval.FromRat(t.mK).Mul(fLambda))
	}

	var s1, s2 interval.Acc
	for i := range sw.ui {
		thrU, thrD := t.thrU[i], t.thrD[i]
		var fb interval.I
		switch {
		case lo >= thrU:
			// Case 1 for the whole block.
			fb = sc.fb1[i]
		case hi <= thrU && lo >= thrD:
			// Middle case for the whole block.
			fb = sw.midBeta(i, t.k)
		case hi <= thrU && hi <= thrD:
			// Case 3 for the whole block: β(λ) = p − q·λ over the
			// block's λ hull.
			fb = sc.fp[i].Sub(sc.fq[i].Mul(fLambda))
		default:
			// The block straddles a case threshold: hull every case any
			// of its indices selects. The case-3 piece is evaluated over
			// the full λ hull — a superset of its true subrange, which
			// only widens the enclosure (sound).
			first := true
			add := func(p interval.I) {
				if first {
					fb, first = p, false
				} else {
					fb = interval.Hull(fb, p)
				}
			}
			if hi > thrU {
				add(sc.fb1[i])
			}
			if max(lo, thrD) < min(hi, thrU) {
				add(sw.midBeta(i, t.k))
			}
			if lo < min(hi, thrD, thrU) {
				add(sc.fp[i].Sub(sc.fq[i].Mul(fLambda)))
			}
		}
		s1.AddScaled(sw.farea[i], interval.Min(fb, fOneMinus))
		s2.AddScaled(sw.farea[i], interval.Min(fb, oneIv))
	}
	return sw.violatesBoth(s1.I(), s2.I(), fOneMinus)
}

// extendedCandidatesFor appends, for the analysed task tk, every λ at
// which some βλk(i) crosses 1−λk (condition 1's cap) or the constant 1
// (condition 2's cap) — the breakpoints of the piecewise-linear test
// functions that the paper's candidate set omits. Only values in
// [uk, 1/m] (so that λk ≤ 1) are kept. The merged list is re-sorted
// and deduplicated in the scratch buffer. Requires sc.b1 to be filled
// for task k (the case-1 βs double as the crossing constants).
func (sw *gn2Sweep) extendedCandidatesFor(k int, sc *gn2Scratch, base []rat.R) []rat.R {
	tk := sw.s.Tasks[k]
	uk := sw.ui[k]
	// m = max(1, Tk/Dk); λk = m·λ.
	m := rat.One
	if tk.T > tk.D {
		m = rat.FromFrac(int64(tk.T), int64(tk.D))
	}
	// λ must satisfy λk ≤ 1, i.e. λ ≤ 1/m.
	lambdaMax := rat.One.Quo(m)
	out := append(sc.cand[:0], base...)
	add := func(r rat.R) {
		if r.Cmp(uk) >= 0 && r.Cmp(lambdaMax) <= 0 {
			out = append(out, r)
		}
	}
	dkR := rat.FromInt(int64(tk.D))
	for i, ti := range sw.s.Tasks {
		ui := sw.ui[i]
		// Case-1 region (λ ≥ ui): βi is the hoisted constant sc.b1[i].
		// Crossing with 1−mλ at λ* = (1−b)/m, valid when λ* lies in the
		// region.
		lam := rat.One.Sub(sc.b1[i]).Quo(m)
		if lam.Cmp(ui) >= 0 {
			add(lam)
		}
		// Case-3 region (λ < min(ui, Ci/Di)): βi(λ) = ui + (Ci−λDi)/Dk.
		// Crossing with 1−mλ: λ·(m − Di/Dk) = 1 − ui − Ci/Dk.
		dRatio := rat.FromFrac(int64(ti.D), int64(tk.D))
		den := m.Sub(dRatio)
		if den.Sign() != 0 {
			num := rat.One.Sub(ui).Sub(rat.FromFrac(int64(ti.C), int64(tk.D)))
			lam3 := num.Quo(den)
			if lam3.Cmp(ui) < 0 && lam3.Cmp(sw.dens[i]) < 0 {
				add(lam3)
			}
		}
		// Case-3 crossing with the constant 1 (condition 2's cap):
		// ui + (Ci−λDi)/Dk = 1 → λ = (Ci − (1−ui)·Dk)/Di.
		lam1 := rat.FromInt(int64(ti.C)).Sub(rat.One.Sub(ui).Mul(dkR)).Quo(rat.FromInt(int64(ti.D)))
		if lam1.Cmp(ui) < 0 && lam1.Cmp(sw.dens[i]) < 0 {
			add(lam1)
		}
	}
	sc.cand = sortDedupR(out)
	return sc.cand
}

// sortDedupR sorts rs ascending and removes duplicates in place.
func sortDedupR(rs []rat.R) []rat.R {
	if len(rs) == 0 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Cmp(rs[j]) < 0 })
	uniq := rs[:1]
	for _, c := range rs[1:] {
		if c.Cmp(uniq[len(uniq)-1]) != 0 {
			uniq = append(uniq, c)
		}
	}
	return uniq
}

// checkTask is the historical single-task entry point, kept for the
// λ-completeness and certificate tests: it runs the production sweep
// machinery for exactly one task with explicitly supplied bounds.
func (g GN2Test) checkTask(ctx context.Context, s *task.Set, k int, abnd, amin *big.Rat) (BoundCheck, error) {
	sw := g.newSweep(s, rat.FromBig(abnd), rat.FromBig(amin), nil)
	sw.enclose()
	return sw.check(ctx, k, sw.newScratch())
}

// beta evaluates Lemma 7's βλk(i) for one task pair, on the production
// arithmetic. The sweep itself uses the hoisted per-task forms; this
// entry point exists for the spec-level unit tests and point
// evaluations.
func (g GN2Test) beta(ti, tk task.Task, lambda *big.Rat) *big.Rat {
	return g.betaR(ti, tk, rat.FromBig(lambda)).Rat()
}

func (g GN2Test) betaR(ti, tk task.Task, lambda rat.R) rat.R {
	ui := rat.FromFrac(int64(ti.C), int64(ti.T))
	if ui.Cmp(lambda) <= 0 {
		return case1Beta(ti, ui, int64(tk.D))
	}
	dens := rat.FromFrac(int64(ti.C), int64(ti.D))
	if lambda.Cmp(dens) >= 0 {
		if g.Options.CaseTwoBaker {
			return dens
		}
		return rat.FromFrac(int64(tk.C), int64(tk.T))
	}
	// Ci/Ti + (Ci − λ·Di)/Dk.
	carry := rat.FromInt(int64(ti.C)).Sub(lambda.Mul(rat.FromInt(int64(ti.D)))).Quo(rat.FromInt(int64(tk.D)))
	return ui.Add(carry)
}

// lambdaCandidates returns the sorted, deduplicated set of λ values
// that need to be tried for a task with utilization uk: the minimum
// point uk itself, every task utilization Ci/Ti ≥ uk, and every density
// Ci/Di ≥ uk of tasks with post-period deadlines (where βλk is
// discontinuous). The sweep materialises these lists as suffixes of
// one global sorted list; this standalone form (which accepts an
// arbitrary uk) backs the candidate-set unit tests.
func lambdaCandidates(s *task.Set, uk *big.Rat) []*big.Rat {
	ukR := rat.FromBig(uk)
	cands := []rat.R{ukR}
	add := func(r rat.R) {
		if r.Cmp(ukR) >= 0 {
			cands = append(cands, r)
		}
	}
	for _, ti := range s.Tasks {
		add(rat.FromFrac(int64(ti.C), int64(ti.T)))
		if ti.D > ti.T {
			add(rat.FromFrac(int64(ti.C), int64(ti.D)))
		}
	}
	cands = sortDedupR(cands)
	out := make([]*big.Rat, len(cands))
	for i, c := range cands {
		out[i] = c.Rat()
	}
	return out
}
