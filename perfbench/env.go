package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"fpgasched/api"
	"fpgasched/client"
	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
	"fpgasched/internal/server"
	"fpgasched/internal/task"
)

type opKind uint8

const (
	opAnalyze opKind = iota
	opAdmit
	opRelease
	opRead
)

func (k opKind) String() string {
	return [...]string{"analyze", "admit", "release", "read"}[k]
}

// maxWarmTasks is the size of the largest analyze-warm pool set.
const maxWarmTasks = 5

// op is one generated request. Everything a request sends is fixed
// before timing starts. An op holds no pointers, so the garbage
// collector never scans the operation list: the benchmark's own data
// should cost the program under test as little as it can.
type op struct {
	kind opKind
	// analyze: the index of the set in env.sets (analyze-cold: the set
	// itself; analyze-warm: the pool set the request permutes).
	// admit-churn: the tenant.
	ref int32
	// admit and release: the task admitted or released, in env.tasks.
	task int32
	// analyze-warm: the caller's task order, as indices into the pool set.
	perm    [maxWarmTasks]uint8
	explain bool
}

// env is one set-up workload: an in-process fpgaschedd on a loopback
// listener, the clients that drive it, and the generated operations.
type env struct {
	eng        *engine.Engine
	srv        *server.Server
	hs         *http.Server
	served     chan struct{}
	transports []*http.Transport
	clients    []*client.Client
	tr         *tracer // nil in the untraced run

	// admit-churn only: the WAL and its state directory.
	store    *durable.Store
	stateDir string

	ops     []op
	plan    plan
	primary opKind

	// Responses, indexed like ops. An analysis is kept as the digest of
	// what the oracle compares, so the responses of a long run do not
	// grow the heap the program's garbage collector marks.
	analyzed []uint64
	admitted []*api.AdmitResponse
	reads    []*api.ResidentResponse

	// Workload inputs the oracle and the ladder replay.
	sets     []*task.Set // analyze: cold sets, or the warm pool
	columns  int         // analyze: the device the sets are analyzed on
	permuted bool        // analyze-warm: requests permute their pool set
	tenants  []*tenantSpec
	tasks    []task.Task // admit-churn: the tasks ops admit and release
	// Recovery timings of the admit-churn set-up.
	replayDur, restoreDur time.Duration
}

// serve puts srv on a loopback listener and opens one client, with a
// connection of its own, per worker.
func (e *env) serve(srv *server.Server, conns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	e.srv = srv
	var h http.Handler = srv
	if e.tr != nil {
		h = e.tr.handler(srv)
	}
	e.hs = &http.Server{Handler: h}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		if err := e.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serving: %v\n", err)
		}
	}()
	url := "http://" + ln.Addr().String()
	e.transports, e.clients = nil, nil
	for i := 0; i < conns; i++ {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		var rt http.RoundTripper = t
		if e.tr != nil {
			rt = transport{inner: t, t: e.tr}
		}
		c, err := client.New(url, client.WithHTTPClient(&http.Client{Transport: rt}))
		if err != nil {
			return err
		}
		// Open the connection now, so no timed request pays for it.
		if err := c.Health(context.Background()); err != nil {
			return fmt.Errorf("health check: %w", err)
		}
		e.transports = append(e.transports, t)
		e.clients = append(e.clients, c)
	}
	return nil
}

// stopServing closes the clients, the listener and the server, and
// waits for the serving goroutine to end.
func (e *env) stopServing() {
	if e.hs == nil {
		return
	}
	for _, t := range e.transports {
		t.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		_ = e.hs.Close()
	}
	<-e.served
	e.srv.Close()
	e.hs = nil
}

// close releases everything the set-up created.
func (e *env) close() {
	e.stopServing()
	if e.store != nil {
		if err := e.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing WAL: %v\n", err)
		}
	}
	if e.stateDir != "" {
		_ = os.RemoveAll(e.stateDir)
	}
	if e.eng != nil {
		e.eng.Close()
	}
}

// send executes operation i on worker w's connection.
func (e *env) send(w, i int, traced bool) error {
	ctx := context.Background()
	if traced && e.tr != nil {
		ctx = withOp(ctx, i)
	}
	c := e.clients[w]
	o := &e.ops[i]
	var err error
	switch o.kind {
	case opAnalyze:
		var res *api.AnalyzeResponse
		if res, err = c.Analyze(ctx, e.analyzeRequest(o)); err == nil {
			e.analyzed[i] = digestResult(res.Result)
		}
	case opAdmit:
		e.admitted[i], err = c.Admit(ctx, e.tenants[o.ref].name, e.tasks[o.task])
	case opRelease:
		err = c.Release(ctx, e.tenants[o.ref].name, e.tasks[o.task].Name)
	case opRead:
		e.reads[i], err = c.Resident(ctx, e.tenants[o.ref].name)
	}
	return err
}

// analyzeRequest builds the request of an analyze operation.
func (e *env) analyzeRequest(o *op) api.AnalyzeRequest {
	set := e.sets[o.ref]
	if e.permuted {
		base := set
		set = &task.Set{Tasks: make([]task.Task, base.Len())}
		for j := range set.Tasks {
			set.Tasks[j] = base.Tasks[o.perm[j]]
		}
	}
	return api.AnalyzeRequest{Columns: e.columns, Tests: analyzeTests, Taskset: set, Explain: o.explain}
}

func (e *env) allocResponses() {
	n := len(e.ops)
	e.analyzed = make([]uint64, n)
	e.admitted = make([]*api.AdmitResponse, n)
	e.reads = make([]*api.ResidentResponse, n)
}
