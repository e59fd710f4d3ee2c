// Command perfbench is the repository's benchmark. It runs one named
// workload against an in-process fpgaschedd (internal/server) over
// loopback HTTP through the client SDK, checks every response against
// an independent oracle, and prints the workload's end-to-end metrics
// (--trace 0) or, from a traced run, its per-layer metrics (--trace 1).
// The last line of standard output is the result as one JSON object.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fpgasched/api"
	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
)

// A run sets its workload up at least minSetups times and until the
// set-ups took setupBudget, at most maxSetups times; setup_s is the
// median, and the last set-up is the one measured. A quick set-up is
// repeated more often, so its median is as steady as a slow one's.
const (
	minSetups   = 3
	maxSetups   = 20
	setupBudget = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: analyze-cold, analyze-warm or admit-churn")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the measurement window")
	trace := fs.Int("trace", 0, "1 makes a traced run and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for WAL state and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload analyze-cold|analyze-warm|admit-churn, --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
		conns: min(2, runtime.NumCPU())}
	rep, res, err := measure(def, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Fprintln(stdout, string(report))
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or answered wrongly\n", *name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// reportedValue is a metric in the human-facing report, with the
// sample count behind it where it is a percentile or a mean.
type reportedValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type report struct {
	Workload string                   `json:"workload"`
	Seed     uint64                   `json:"seed"`
	Seconds  int                      `json:"seconds"`
	Trace    bool                     `json:"trace"`
	Conns    int                      `json:"connections"`
	Host     hostInfo                 `json:"host"`
	Metrics  map[string]reportedValue `json:"metrics"`
	Problems []string                 `json:"problems,omitempty"`
}

// counters are the program's own counters around the run.
type counters struct {
	eng engine.Stats
	adm api.AdmissionMetrics
	wal durable.Metrics
}

func snapshot(e *env) (counters, error) {
	c := counters{eng: e.eng.Stats()}
	m, err := e.clients[0].Metrics(context.Background())
	if err != nil {
		return c, fmt.Errorf("reading /metrics: %w", err)
	}
	if m.Admission != nil {
		c.adm = *m.Admission
	}
	if e.store != nil {
		c.wal = e.store.Metrics()
	}
	return c, nil
}

// setup sets the workload up as often as minSetups, maxSetups and
// setupBudget say, and keeps the last set-up.
func setup(def *workloadDef, cfg runConfig) (*env, []float64, []time.Duration, []time.Duration, error) {
	var setupS []float64
	var replay, restore []time.Duration
	var total time.Duration
	for {
		e := &env{}
		if cfg.trace {
			e.tr = newTracer()
		}
		start := time.Now()
		if err := def.setup(e, cfg); err != nil {
			e.close()
			return nil, nil, nil, nil, err
		}
		d := time.Since(start)
		total += d
		setupS = append(setupS, d.Seconds())
		replay, restore = append(replay, e.replayDur), append(restore, e.restoreDur)
		if n := len(setupS); n == maxSetups || (n >= minSetups && total >= setupBudget) {
			return e, setupS, replay, restore, nil
		}
		e.close()
		runtime.GC()
	}
}

func measure(def *workloadDef, cfg runConfig) (*report, *result, error) {
	e, setupS, replay, restore, err := setup(def, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	before, err := snapshot(e)
	if err != nil {
		return nil, nil, err
	}
	origin := time.Now()
	if e.tr != nil {
		e.tr.start(origin)
	}
	clk := realClock{origin: origin}
	// The traced window's engine counters start at its boundary.
	boundary := make(chan engine.Stats, 1)
	if cfg.trace {
		go func() {
			clk.sleepUntil(e.plan.traceFrom)
			boundary <- e.eng.Stats()
		}()
	}
	samples := drive(clk, e.plan, len(e.ops), e.send)
	// Peak RSS is read before the oracle and the ladder allocate.
	memPeak := peakRSSMB()
	after, err := snapshot(e)
	if err != nil {
		return nil, nil, err
	}
	var engAtBoundary engine.Stats
	if cfg.trace {
		engAtBoundary = <-boundary
	}

	var v *verification
	if e.tenants != nil {
		final := make([]*api.ResidentResponse, len(e.tenants))
		for t, spec := range e.tenants {
			if final[t], err = e.clients[0].Resident(context.Background(), spec.name); err != nil {
				return nil, nil, fmt.Errorf("final resident read: %w", err)
			}
		}
		v = verifyChurn(e, samples, final, cfg.conns)
	} else {
		v = verifyAnalyze(e, samples, cfg.conns)
	}

	m := &metricSet{all: map[string]reportedValue{}}
	attempted := 0
	for _, s := range samples {
		if s.sent {
			attempted++
		}
	}
	// Operations a backlog kept from being sent count as failed.
	unsent := 0
	for i, s := range samples {
		if !s.sent && e.plan.open && e.plan.due[i] < cfg.window()*time.Duration(cfg.windows()) {
			unsent++
		}
	}
	attempted += unsent
	failed := v.failed + unsent
	if attempted == 0 {
		return nil, nil, errors.New("no operation was sent")
	}
	if err := endToEnd(m, e, cfg, samples, setupS, memPeak, failed, attempted); err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		if err := perLayer(m, e, cfg, samples, v, before, after, engAtBoundary, replay, restore); err != nil {
			return nil, nil, err
		}
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Conns: len(e.clients), Host: host(), Metrics: m.all, Problems: v.problems}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	names := endToEndNames
	if cfg.trace {
		names = perLayerNames
	}
	for _, n := range names {
		r, ok := m.all[n]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = value{Value: r.Value, Unit: r.Unit}
	}
	return rep, res, nil
}

// spansPath names the span file of a traced run.
func spansPath(cfg runConfig) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
