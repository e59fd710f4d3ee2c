package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"fpgasched/api"
	"fpgasched/internal/admission"
	"fpgasched/internal/core"
	"fpgasched/internal/engine"
	"fpgasched/internal/workload"
)

// The ladder times one warm request at each rung below the full load:
// the engine cache hit, Server.ServeHTTP with a recorder and no socket,
// and the loopback SDK call at one connection. It also replays what the
// run recorded through single layers: the api codec over the recorded
// bodies and the admission controllers over each tenant's operations.

const ladderIters = 1000

// hitRequest is the rungs' request: the paper's Table 3 set with the
// three tests, as the warm workload sends it.
func hitRequest() api.AnalyzeRequest {
	return api.AnalyzeRequest{Columns: workload.TableDeviceColumns, Tests: analyzeTests, Taskset: workload.Table3()}
}

// timeIters returns the median duration of n calls of f.
func timeIters(n int, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	v, _ := msDist(ds).p(0.5)
	return time.Duration(v * float64(time.Millisecond)), nil
}

type rungs struct {
	engineHit, handlerHit, loopbackHit time.Duration
	handlerAllocs                      float64
}

func runRungs(e *env) (rungs, error) {
	var r rungs
	ctx := context.Background()
	req := hitRequest()
	if _, err := e.clients[0].Analyze(ctx, req); err != nil {
		return r, fmt.Errorf("warming the ladder request: %w", err)
	}
	var ereqs []engine.Request
	for _, name := range req.Tests {
		t, err := core.TestByName(name)
		if err != nil {
			return r, err
		}
		ereqs = append(ereqs, engine.Request{Columns: req.Columns, Set: req.Taskset, Test: t, OmitChecks: true})
	}
	var err error
	if r.engineHit, err = timeIters(ladderIters, func() error {
		_, err := e.eng.AnalyzeAll(ctx, ereqs)
		return err
	}); err != nil {
		return r, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return r, err
	}
	handle := func() error {
		rec := httptest.NewRecorder()
		e.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler rung: status %d", rec.Code)
		}
		return nil
	}
	if r.handlerHit, err = timeIters(ladderIters, handle); err != nil {
		return r, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ladderIters; i++ {
		if err := handle(); err != nil {
			return r, err
		}
	}
	runtime.ReadMemStats(&after)
	r.handlerAllocs = float64(after.Mallocs-before.Mallocs) / ladderIters
	r.loopbackHit, err = timeIters(ladderIters, func() error {
		_, err := e.clients[0].Analyze(ctx, req)
		return err
	})
	return r, err
}

// codecTimes returns the mean time to decode a recorded request body
// and to encode its recorded response, each the way the server does
// (strict decoder; indented encoder), through the api types' own
// (Un)MarshalJSON.
func codecTimes(e *env) (decode, encode time.Duration, err error) {
	const passes = 5
	var n int
	for _, b := range e.tr.bodies {
		in, out := codecTypes(e.ops[b.op].kind)
		if in == nil && out == nil {
			continue
		}
		if out != nil {
			if err := json.Unmarshal(b.res, out); err != nil {
				return 0, 0, fmt.Errorf("recorded response: %w", err)
			}
		}
		for p := 0; p < passes; p++ {
			if in != nil {
				start := time.Now()
				dec := json.NewDecoder(bytes.NewReader(b.req))
				dec.DisallowUnknownFields()
				if err := dec.Decode(in()); err != nil {
					return 0, 0, fmt.Errorf("recorded request: %w", err)
				}
				decode += time.Since(start)
			}
			if out != nil {
				start := time.Now()
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				if err := enc.Encode(out); err != nil {
					return 0, 0, err
				}
				encode += time.Since(start)
			}
		}
		n += passes
	}
	if n == 0 {
		return 0, 0, nil
	}
	return decode / time.Duration(n), encode / time.Duration(n), nil
}

// codecTypes returns a constructor for the request type of an
// operation kind and a value for its response, nil where it has none.
func codecTypes(k opKind) (func() any, any) {
	switch k {
	case opAnalyze:
		return func() any { return new(api.AnalyzeRequest) }, new(api.AnalyzeResponse)
	case opAdmit:
		return func() any { return new(api.Task) }, new(api.AdmitResponse)
	case opRead:
		return nil, new(api.ResidentResponse)
	}
	return nil, nil
}

// admissionReplay replays each tenant's restored residents and sent
// operations through a fresh incremental controller, as the server
// holds them after recovery, and returns the mean Request time.
func admissionReplay(e *env, samples []sample) (time.Duration, error) {
	ctx := context.Background()
	var total time.Duration
	var n int
	for t, spec := range e.tenants {
		c, err := admission.NewController(churnColumns, core.GN2Test{})
		if err != nil {
			return 0, err
		}
		for _, tk := range spec.initial {
			if err := c.ForceAdmit(tk); err != nil {
				return 0, err
			}
		}
		for i, o := range e.ops {
			if int(o.ref) != t || !samples[i].sent {
				continue
			}
			switch o.kind {
			case opAdmit:
				start := time.Now()
				c.Request(ctx, e.tasks[o.task])
				total += time.Since(start)
				n++
			case opRelease:
				c.Release(e.tasks[o.task].Name)
			}
		}
	}
	if n == 0 {
		return 0, nil
	}
	return total / time.Duration(n), nil
}
