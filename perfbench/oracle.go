package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"

	"fpgasched/api"
	"fpgasched/internal/admission"
	"fpgasched/internal/core"
	"fpgasched/internal/task"
)

// The oracle checks every served response against code paths that did
// not serve it: a direct core call on the set in the caller's order for
// analyses, and a from-scratch admission.Controller per tenant (no
// incremental state) for admit-churn. It runs after the timed window.

// verification is the oracle's result.
type verification struct {
	failed   int      // operations that errored or answered wrongly
	problems []string // the first few mismatches, for the report
	// Reference kernel time per test, the core rung of the ladder.
	coreTime  map[string]time.Duration
	coreCalls map[string]int
}

const maxProblems = 5

func (v *verification) fail(format string, args ...any) {
	v.failed++
	if len(v.problems) < maxProblems {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

func (v *verification) merge(o *verification) {
	v.failed += o.failed
	for _, p := range o.problems {
		if len(v.problems) < maxProblems {
			v.problems = append(v.problems, p)
		}
	}
	for k, d := range o.coreTime {
		v.coreTime[k] += d
		v.coreCalls[k] += o.coreCalls[k]
	}
}

func newVerification() *verification {
	return &verification{coreTime: map[string]time.Duration{}, coreCalls: map[string]int{}}
}

// referenceCerts runs each test directly on set, in the caller's order,
// and returns the wire form a correct server sends: per-task checks and
// sub-verdicts only under explain.
func referenceCerts(set *task.Set, columns int, tests []string, explain bool, v *verification) ([]api.Verdict, error) {
	out := make([]api.Verdict, len(tests))
	for i, name := range tests {
		t, err := core.TestByName(name)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		verdict := t.Analyze(context.Background(), core.NewDevice(columns), set)
		v.coreTime[name] += time.Since(start)
		v.coreCalls[name]++
		c := verdict.Certificate()
		if !explain {
			c.Checks, c.SubVerdicts = nil, nil
		}
		out[i] = c
	}
	return out, nil
}

// certDiff compares a served certificate with the reference on
// everything but the free-text reason, whose wording depends on which
// request filled the cache. It returns "" when they agree.
func certDiff(got, want api.Verdict) string {
	got.Reason, want.Reason = "", ""
	if len(got.SubVerdicts) != len(want.SubVerdicts) {
		return fmt.Sprintf("%d sub-verdicts, want %d", len(got.SubVerdicts), len(want.SubVerdicts))
	}
	for i := range got.SubVerdicts {
		if d := certDiff(got.SubVerdicts[i], want.SubVerdicts[i]); d != "" {
			return fmt.Sprintf("sub-verdict %d: %s", i, d)
		}
	}
	got.SubVerdicts, want.SubVerdicts = nil, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("got %+v, want %+v", got, want)
	}
	return ""
}

// digest accumulates a 64-bit FNV-1a hash. The oracle compares a served
// analysis with its reference through the digest of what it checks, so
// a run keeps eight bytes per response instead of the response.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d *digest) byte(b byte) { *d = (*d ^ digest(b)) * fnvPrime }

func (d *digest) int(v int) {
	for k := 0; k < 64; k += 8 {
		d.byte(byte(v >> k))
	}
}

func (d *digest) str(s string) {
	d.int(len(s))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

func (d *digest) bool(b bool) {
	if b {
		d.byte(1)
	} else {
		d.byte(0)
	}
}

// cert adds everything of a certificate but the free-text reason, whose
// wording depends on which request filled the cache.
func (d *digest) cert(c *api.Verdict) {
	d.str(c.Test)
	d.bool(c.Schedulable)
	ft := -1
	if c.FailingTask != nil {
		ft = *c.FailingTask
	}
	d.int(ft)
	d.str(c.AcceptedBy)
	d.int(len(c.Checks))
	for _, k := range c.Checks {
		d.int(k.TaskIndex)
		d.str(k.LHS)
		d.str(k.RHS)
		d.bool(k.Satisfied)
		d.str(k.Lambda)
		d.int(k.Condition)
	}
	d.int(len(c.SubVerdicts))
	for i := range c.SubVerdicts {
		d.cert(&c.SubVerdicts[i])
	}
}

// digestResult digests one served analysis result; a missing result
// digests to 0, which no reference has.
func digestResult(res *api.AnalyzeResult) uint64 {
	if res == nil {
		return 0
	}
	d := fnvOffset
	d.bool(res.Schedulable)
	d.int(len(res.Verdicts))
	for i := range res.Verdicts {
		d.cert(&res.Verdicts[i])
	}
	return uint64(d)
}

// referenceResult is the result a correct server sends for the
// reference verdicts: schedulable iff some test accepts.
func referenceResult(want []api.Verdict) *api.AnalyzeResult {
	res := &api.AnalyzeResult{Verdicts: want}
	for _, v := range want {
		res.Schedulable = res.Schedulable || v.Schedulable
	}
	return res
}

// verifyAnalyze checks every sent analyze operation, on workers
// goroutines. Identical requests (the warm stream repeats them) are
// checked against one reference computation.
func verifyAnalyze(e *env, samples []sample, workers int) *verification {
	type refKey struct {
		ref     int32
		perm    [maxWarmTasks]uint8
		explain bool
	}
	type reference struct {
		digest uint64
		want   []api.Verdict
	}
	var mu sync.Mutex
	memo := map[refKey]reference{}
	parts := make([]*verification, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		parts[w] = newVerification()
		wg.Add(1)
		go func(v *verification, w int) {
			defer wg.Done()
			for i := w; i < len(e.ops); i += workers {
				s := samples[i]
				if !s.sent {
					continue
				}
				if s.err != nil {
					v.fail("op %d: %v", i, s.err)
					continue
				}
				o := &e.ops[i]
				k := refKey{o.ref, o.perm, o.explain}
				mu.Lock()
				ref, ok := memo[k]
				mu.Unlock()
				if !ok {
					req := e.analyzeRequest(o)
					want, err := referenceCerts(req.Taskset, req.Columns, req.Tests, req.Explain, v)
					if err != nil {
						v.fail("op %d: reference: %v", i, err)
						continue
					}
					ref = reference{digestResult(referenceResult(want)), want}
					mu.Lock()
					memo[k] = ref
					mu.Unlock()
				}
				if e.analyzed[i] != ref.digest {
					v.fail("op %d: served verdicts differ from the reference %s", i, summary(ref.want))
				}
			}
		}(parts[w], w)
	}
	wg.Wait()
	out := newVerification()
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// summary renders reference verdicts for a mismatch report.
func summary(vs []api.Verdict) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s=%v", v.Test, v.Schedulable)
	}
	return strings.Join(parts, " ")
}

func taskNames(s *task.Set) []string {
	names := make([]string, s.Len())
	for i, t := range s.Tasks {
		names[i] = t.Name
	}
	return names
}

// admitDiff compares a served admission decision with the reference.
func admitDiff(got *api.AdmitResponse, want admission.Decision) string {
	if got == nil {
		return "no response"
	}
	if got.Admitted != want.Admitted || got.ProvedBy != want.ProvedBy {
		return fmt.Sprintf("admitted=%v by %q, want admitted=%v by %q", got.Admitted, got.ProvedBy, want.Admitted, want.ProvedBy)
	}
	if (got.Certificate == nil) != (want.Certificate == nil) {
		return fmt.Sprintf("certificate present=%v, want %v", got.Certificate != nil, want.Certificate != nil)
	}
	if got.Certificate != nil {
		return certDiff(*got.Certificate, *want.Certificate)
	}
	return ""
}

// residentDiff compares a served resident snapshot with the reference.
func residentDiff(got *api.ResidentResponse, want *task.Set) string {
	if got == nil || got.Taskset == nil {
		return "no resident set"
	}
	if got.Count != want.Len() || !reflect.DeepEqual(got.Taskset.Tasks, want.Tasks) {
		return fmt.Sprintf("resident %v, want %v", taskNames(got.Taskset), taskNames(want))
	}
	return ""
}

// verifyChurn replays each tenant's initial residents and sent
// operations, in send order, through a reference controller and
// compares every answer. final holds each tenant's resident snapshot
// read after the run. After a tenant's first divergence its later
// operations cannot be checked and count as failed.
func verifyChurn(e *env, samples []sample, final []*api.ResidentResponse, workers int) *verification {
	parts := make([]*verification, len(e.tenants))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for t := range e.tenants {
		parts[t] = newVerification()
		wg.Add(1)
		sem <- struct{}{}
		go func(t int, v *verification) {
			defer func() { <-sem; wg.Done() }()
			verifyTenant(e, t, samples, final[t], v)
		}(t, parts[t])
	}
	wg.Wait()
	out := newVerification()
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

func verifyTenant(e *env, t int, samples []sample, final *api.ResidentResponse, v *verification) {
	spec := e.tenants[t]
	ref, err := admission.NewController(churnColumns, core.GN2Test{})
	if err != nil {
		v.fail("%s: reference: %v", spec.name, err)
		return
	}
	ref.DisableIncremental()
	ctx := context.Background()
	for _, tk := range spec.initial {
		if d := ref.Request(ctx, tk); !d.Admitted {
			v.fail("%s: reference rejects initial resident %s: %s", spec.name, tk.Name, d.Reason)
			return
		}
	}
	diverged := false
	for i, o := range e.ops {
		if int(o.ref) != t || !samples[i].sent {
			continue
		}
		if diverged {
			v.failed++
			continue
		}
		if samples[i].err != nil {
			v.fail("%s op %d (%s): %v", spec.name, i, o.kind, samples[i].err)
			diverged = true
			continue
		}
		var d string
		switch o.kind {
		case opAdmit:
			start := time.Now()
			want := ref.Request(ctx, e.tasks[o.task])
			v.coreTime["GN2"] += time.Since(start)
			v.coreCalls["GN2"]++
			d = admitDiff(e.admitted[i], want)
		case opRelease:
			if name := e.tasks[o.task].Name; !ref.Release(name) {
				d = "served a release of " + name + ", which the reference does not hold"
			}
		case opRead:
			d = residentDiff(e.reads[i], ref.Resident())
		}
		if d != "" {
			v.fail("%s op %d (%s): %s", spec.name, i, o.kind, d)
			diverged = true
		}
	}
	if !diverged {
		if d := residentDiff(final, ref.Resident()); d != "" {
			v.fail("%s final resident read: %s", spec.name, d)
		}
	}
}
