package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fpgasched/internal/durable"
	"fpgasched/internal/server"
)

// The traced run records spans at the boundaries of the layers from the
// benchmark's own code, never from inside the program:
//
//	client  around each SDK call (the generator's sample)
//	server  around Server.ServeHTTP, in an http.Handler that wraps it
//	durable around Store.Append, in a server.Store that wraps the WAL
//
// A traced request carries its operation index in opHeader, set by the
// client's transport from the call's context, so the server span joins
// its client span. A durable span joins its request by controller and
// task name, which the generator makes unique within a run. Spans stay
// in memory until the run ends.

const opHeader = "X-Perfbench-Op"

// maxBodies bounds the request/response bodies kept for the api ladder.
const maxBodies = 1000

type opKey struct{}

func withOp(ctx context.Context, op int) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

type span struct {
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// appendSpan is one WAL append: the record's controller and task name
// identify the request that caused it.
type appendSpan struct {
	span
	op         durable.Op
	controller string
	task       string
}

// body is one recorded request/response exchange of a traced operation.
type body struct {
	op       int
	req, res []byte
}

type tracer struct {
	origin atomic.Int64 // Unix nanoseconds of the run's time origin

	mu      sync.Mutex
	server  map[int]span
	appends []appendSpan
	bodies  []body
}

func newTracer() *tracer {
	return &tracer{server: make(map[int]span)}
}

// start sets the origin span times are measured from: the generator's.
func (t *tracer) start(origin time.Time) { t.origin.Store(origin.UnixNano()) }

func (t *tracer) since() time.Duration {
	return time.Duration(time.Now().UnixNano() - t.origin.Load())
}

// handler wraps the server with the server.handle span.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.since()
		h.ServeHTTP(w, r)
		end := t.since()
		t.mu.Lock()
		t.server[op] = span{start, end}
		t.mu.Unlock()
	})
}

// transport tags traced requests with their operation index and keeps
// the first maxBodies request/response bodies for the api ladder.
type transport struct {
	inner http.RoundTripper
	t     *tracer
}

func (tr transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op, ok := req.Context().Value(opKey{}).(int)
	if !ok {
		return tr.inner.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.Itoa(op))
	tr.t.mu.Lock()
	keep := len(tr.t.bodies) < maxBodies
	tr.t.mu.Unlock()
	var reqBody []byte
	if keep && req.GetBody != nil {
		rc, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		reqBody, err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
	}
	resp, err := tr.inner.RoundTrip(req)
	if err != nil || !keep {
		return resp, err
	}
	resBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(resBody))
	tr.t.mu.Lock()
	if len(tr.t.bodies) < maxBodies {
		tr.t.bodies = append(tr.t.bodies, body{op: op, req: reqBody, res: resBody})
	}
	tr.t.mu.Unlock()
	return resp, nil
}

// tracedStore is the durable.append span: a server.Store that times
// each append of the WAL it wraps.
type tracedStore struct {
	inner *durable.Store
	t     *tracer
}

var _ server.Store = tracedStore{}

func (s tracedStore) Append(r durable.Record) error {
	start := s.t.since()
	err := s.inner.Append(r)
	end := s.t.since()
	name := r.TaskName
	if r.Task != nil {
		name = r.Task.Name
	}
	s.t.mu.Lock()
	s.t.appends = append(s.t.appends, appendSpan{span: span{start, end}, op: r.Op, controller: r.Controller, task: name})
	s.t.mu.Unlock()
	return err
}

func (s tracedStore) Metrics() durable.Metrics { return s.inner.Metrics() }

// spanLine is the on-disk form of one span. Spans of one request share
// op; parent names the layer span that caused this one.
type spanLine struct {
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	// Controller names the admit-churn tenant the operation addressed.
	Controller string `json:"controller,omitempty"`
	StartUS    int64  `json:"start_us"`
	EndUS      int64  `json:"end_us"`
}

// writeSpans writes every traced span as JSON lines to path.
func writeSpans(path string, e *env, samples []sample, durableOp map[int]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(l spanLine) {
		if err == nil {
			err = enc.Encode(l)
		}
	}
	for i, s := range samples {
		if !s.sent || !s.traced {
			continue
		}
		l := spanLine{Op: i, Layer: "client", Kind: e.ops[i].kind.String(), StartUS: s.start.Microseconds(), EndUS: s.end.Microseconds()}
		if e.tenants != nil {
			l.Controller = e.tenants[e.ops[i].ref].name
		}
		emit(l)
		if sp, ok := e.tr.server[i]; ok {
			l.Layer, l.Parent, l.StartUS, l.EndUS = "server", "client", sp.start.Microseconds(), sp.end.Microseconds()
			emit(l)
		}
		if sp, ok := durableOp[i]; ok {
			l.Layer, l.Parent, l.StartUS, l.EndUS = "durable", "server", sp.start.Microseconds(), sp.end.Microseconds()
			emit(l)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
