package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
)

// endToEndNames are the metrics of the untraced run's result line, in
// BENCHMARK.json order. The others are in the report only:
// release_* and read_* exist on admit-churn alone, failed_ratio is 0 on
// a correct run, and latency_p99_ms rests on the few stalls of a run
// (on analyze-warm it varied by half its median from seed to seed on a
// 2-CPU VM), so none of them can carry a bound on every workload.
var endToEndNames = []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "mem_peak_mb"}

var perLayerNames = []string{
	"client.self_p50_us", "client.loopback_hit_us",
	"api.decode_us", "api.encode_us",
	"server.handle_p50_us", "server.handle_p99_us", "server.self_mean_us",
	"server.handler_hit_us", "server.handler_hit_allocs", "server.restore_ms",
	"engine.hit_ratio", "engine.analysis_mean_ms", "engine.busy_ratio", "engine.hit_us",
	"core.dp_mean_ms", "core.gn1_mean_ms", "core.gn2_mean_ms", "core.screen_decided_ratio", "core.latency_share",
	"admission.incremental_hit_ratio", "admission.request_mean_us", "admission.admitted_ratio",
	"durable.append_p50_us", "durable.append_p99_us", "durable.fsyncs_per_record", "durable.replay_ms",
	"bench.late_p99_ms", "bench.trace_overhead_ratio",
}

type metricSet struct {
	all map[string]reportedValue
}

func (m *metricSet) set(name, unit string, v float64, samples int) {
	m.all[name] = reportedValue{Value: v, Unit: unit, Samples: samples}
}

// pct records the q-quantile of d, and leaves it out when fewer than
// minBeyond samples lie beyond it.
func (m *metricSet) pct(name, unit string, d dist, q float64) bool {
	v, ok := d.p(q)
	if ok {
		m.set(name, unit, v, len(d))
	}
	return ok
}

// requirePct is pct for a metric the result line carries.
func (m *metricSet) requirePct(name, unit string, d dist, q float64) error {
	if !m.pct(name, unit, d, q) {
		return fmt.Errorf("%s: %d samples leave fewer than %d beyond the %g quantile", name, len(d), minBeyond, q)
	}
	return nil
}

// latencies returns the latency of every successful operation of kind
// in the given window.
func latencies(e *env, samples []sample, kind opKind, traced bool) []time.Duration {
	var ds []time.Duration
	for i, s := range samples {
		if s.sent && s.err == nil && s.traced == traced && e.ops[i].kind == kind {
			ds = append(ds, s.latency())
		}
	}
	return ds
}

func endToEnd(m *metricSet, e *env, cfg runConfig, samples []sample, setupS []float64, memPeak float64, failed, attempted int) error {
	m.set("setup_s", "s", median(setupS), len(setupS))
	m.set("mem_peak_mb", "MB", memPeak, 0)
	m.set("failed_ratio", "ratio", float64(failed)/float64(attempted), attempted)

	// Throughput and median latency are medians over the untraced
	// window's one-second windows, so a stall of the host that lasts a
	// few seconds moves them little.
	seconds := int(cfg.window() / time.Second)
	ends := make([][]time.Duration, seconds)
	byWindow := make([][]time.Duration, seconds)
	n := 0
	for i, s := range samples {
		if !s.sent || s.traced || s.err != nil {
			continue
		}
		n++
		if k := int(s.end / time.Second); k < seconds {
			ends[k] = append(ends[k], s.end)
		}
		if k := int(s.due / time.Second); k < seconds && e.ops[i].kind == e.primary {
			byWindow[k] = append(byWindow[k], s.latency())
		}
	}
	if n == 0 {
		return fmt.Errorf("no operation completed")
	}
	// A window's rate is timed from its first completion to its last.
	var rates []float64
	for _, es := range ends {
		if len(es) >= 2 {
			first, last := slices.Min(es), slices.Max(es)
			rates = append(rates, float64(len(es)-1)/(last-first).Seconds())
		}
	}
	if len(rates) == 0 {
		return fmt.Errorf("throughput_ops_s: no second completed two operations")
	}
	m.set("throughput_ops_s", "1/s", median(rates), n)
	// A closed loop that runs out of inputs leaves its last seconds empty.
	var p50s []float64
	for _, ds := range byWindow {
		if v, ok := msDist(ds).p(0.5); ok {
			p50s = append(p50s, v)
		}
	}
	if len(p50s) == 0 {
		return fmt.Errorf("latency_p50_ms: no second has enough samples for a median")
	}

	primary := msDist(latencies(e, samples, e.primary, false))
	m.pct("latency_p99_ms", "ms", primary, 0.99)
	if e.tenants != nil {
		for _, k := range []opKind{opRelease, opRead} {
			d := msDist(latencies(e, samples, k, false))
			m.pct(k.String()+"_p50_ms", "ms", d, 0.5)
			m.pct(k.String()+"_p99_ms", "ms", d, 0.99)
		}
	}
	m.set("latency_p50_ms", "ms", median(p50s), len(primary))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func perLayer(m *metricSet, e *env, cfg runConfig, samples []sample, v *verification,
	before, after counters, engAtBoundary engine.Stats, replay, restore []time.Duration) error {
	// Join each traced operation with its server and durable spans.
	type key struct {
		op         durable.Op
		controller string
		task       string
	}
	opOf := map[key]int{}
	for i, o := range e.ops {
		switch o.kind {
		case opAdmit:
			opOf[key{durable.OpAdmit, e.tenants[o.ref].name, e.tasks[o.task].Name}] = i
		case opRelease:
			opOf[key{durable.OpRelease, e.tenants[o.ref].name, e.tasks[o.task].Name}] = i
		}
	}
	durableOp := map[int]span{}
	var appendDur []time.Duration
	for _, a := range e.tr.appends {
		if i, ok := opOf[key{a.op, a.controller, a.task}]; ok && samples[i].traced {
			durableOp[i] = a.span
			appendDur = append(appendDur, a.dur())
		}
	}
	var clientSelf, handle []time.Duration
	var handleAll time.Duration
	var handled int
	for i, s := range samples {
		sp, ok := e.tr.server[i]
		if !s.sent || !s.traced || s.err != nil || !ok {
			continue
		}
		handleAll += sp.dur()
		handled++
		if e.ops[i].kind == e.primary {
			handle = append(handle, sp.dur())
			clientSelf = append(clientSelf, (s.end-s.start)-sp.dur())
		}
	}
	if handled == 0 {
		return fmt.Errorf("no traced request reached the server")
	}
	usDist := func(ds []time.Duration) dist {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = us(d)
		}
		return newDist(xs)
	}
	if err := m.requirePct("client.self_p50_us", "us", usDist(clientSelf), 0.5); err != nil {
		return err
	}
	if err := m.requirePct("server.handle_p50_us", "us", usDist(handle), 0.5); err != nil {
		return err
	}
	if err := m.requirePct("server.handle_p99_us", "us", usDist(handle), 0.99); err != nil {
		return err
	}

	// Engine counters over the traced window.
	eng := after.eng
	dHits := float64(eng.Hits - engAtBoundary.Hits)
	dMiss := float64(eng.Misses - engAtBoundary.Misses)
	dAn := float64(eng.Analyses - engAtBoundary.Analyses)
	dNanos := float64(eng.AnalysisNanos - engAtBoundary.AnalysisNanos)
	var appendAll time.Duration
	for _, d := range appendDur {
		appendAll += d
	}
	// The engine runs a request's analyses concurrently, so their summed
	// time can exceed the spans that hold them; they cover at most those.
	self := (float64(handleAll) - min(dNanos, float64(handleAll)) - float64(appendAll)) / float64(handled)
	m.set("server.self_mean_us", "us", self/float64(time.Microsecond), handled)
	m.set("engine.hit_ratio", "ratio", ratio(dHits, dHits+dMiss), int(dHits+dMiss))
	m.set("engine.analysis_mean_ms", "ms", ratio(dNanos, dAn)/float64(time.Millisecond), int(dAn))
	m.set("engine.busy_ratio", "ratio", ratio(dNanos, float64(cfg.window())*float64(eng.Workers)), 0)
	dDec := float64(eng.ScreenDecided - engAtBoundary.ScreenDecided)
	dEsc := float64(eng.ScreenEscalated - engAtBoundary.ScreenEscalated)
	m.set("core.screen_decided_ratio", "ratio", ratio(dDec, dDec+dEsc), int(dDec+dEsc))

	// The core rung: the oracle's direct kernel calls on the recorded
	// sets, per test. The latency share charges each analysis the engine
	// ran in the traced window with its test's rung mean.
	var coreShare float64
	for _, t := range analyzeTests {
		mean := ratio(float64(v.coreTime[t]), float64(v.coreCalls[t]))
		m.set(fmt.Sprintf("core.%s_mean_ms", strings.ToLower(t)), "ms", mean/float64(time.Millisecond), v.coreCalls[t])
		coreShare += mean * float64(eng.Tests[t].Analyses-engAtBoundary.Tests[t].Analyses)
	}
	var latSum time.Duration
	traced := latencies(e, samples, e.primary, true)
	for _, d := range traced {
		latSum += d
	}
	m.set("core.latency_share", "ratio", ratio(coreShare, float64(latSum)), len(traced))

	// Admission and WAL counters over the whole run.
	adm := after.adm
	inc := float64(adm.IncrementalHits - before.adm.IncrementalHits)
	full := float64(adm.FullRuns - before.adm.FullRuns)
	m.set("admission.incremental_hit_ratio", "ratio", ratio(inc, inc+full), int(inc+full))
	req := float64(adm.Requests - before.adm.Requests)
	m.set("admission.admitted_ratio", "ratio", ratio(float64(adm.Admitted-before.adm.Admitted), req), int(req))
	recs := float64(after.wal.Records - before.wal.Records)
	m.set("durable.fsyncs_per_record", "ratio", ratio(float64(after.wal.Fsyncs-before.wal.Fsyncs), recs), int(recs))
	m.set("durable.replay_ms", "ms", ms(medianDur(replay)), len(replay))
	m.set("server.restore_ms", "ms", ms(medianDur(restore)), len(restore))
	m.set("durable.append_p50_us", "us", 0, 0)
	m.set("durable.append_p99_us", "us", 0, 0)
	if len(appendDur) > 0 {
		if err := m.requirePct("durable.append_p50_us", "us", usDist(appendDur), 0.5); err != nil {
			return err
		}
		if err := m.requirePct("durable.append_p99_us", "us", usDist(appendDur), 0.99); err != nil {
			return err
		}
	}
	reqMean := time.Duration(0)
	if e.tenants != nil {
		var err error
		if reqMean, err = admissionReplay(e, samples); err != nil {
			return err
		}
	}
	m.set("admission.request_mean_us", "us", us(reqMean), 0)

	dec, enc, err := codecTimes(e)
	if err != nil {
		return err
	}
	m.set("api.decode_us", "us", us(dec), len(e.tr.bodies))
	m.set("api.encode_us", "us", us(enc), len(e.tr.bodies))

	r, err := runRungs(e)
	if err != nil {
		return err
	}
	m.set("engine.hit_us", "us", us(r.engineHit), ladderIters)
	m.set("server.handler_hit_us", "us", us(r.handlerHit), ladderIters)
	m.set("server.handler_hit_allocs", "count", r.handlerAllocs, ladderIters)
	m.set("client.loopback_hit_us", "us", us(r.loopbackHit), ladderIters)

	// Generator health: lateness over the untraced window, and the
	// traced over the untraced median latency.
	var late []time.Duration
	for _, s := range samples {
		if s.sent && !s.traced {
			late = append(late, s.late())
		}
	}
	m.set("bench.late_p99_ms", "ms", 0, 0)
	if e.plan.open {
		if err := m.requirePct("bench.late_p99_ms", "ms", msDist(late), 0.99); err != nil {
			return err
		}
	}
	p50t, _ := msDist(traced).p(0.5)
	p50u, _ := msDist(latencies(e, samples, e.primary, false)).p(0.5)
	m.set("bench.trace_overhead_ratio", "ratio", ratio(p50t, p50u), len(traced))

	return writeSpans(spansPath(cfg), e, samples, durableOp)
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
