package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"fpgasched/api"
	"fpgasched/internal/admission"
	"fpgasched/internal/core"
	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
	"fpgasched/internal/server"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
	"fpgasched/internal/workload"
)

// runConfig is what one invocation measures.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // directory for WAL state and span files
	conns    int    // open-loop connections and oracle workers: min(2, nproc)
}

// windows is the number of measurement windows: the traced run first
// repeats the untraced window, so tracing overhead is measured in the
// same process on the same inputs.
func (c runConfig) windows() int {
	if c.trace {
		return 2
	}
	return 1
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// analyzeTests are the paper's three sufficient tests, requested
// separately so every request runs all three kernels.
var analyzeTests = []string{"DP", "GN1", "GN2"}

// Stream salts keep the workloads' random streams apart for one seed.
const (
	coldStream  = 0xc01d << 32
	warmStream  = 0x3a53 << 32
	churnStream = 0xc4a5 << 32
)

type workloadDef struct {
	name  string
	setup func(e *env, cfg runConfig) error
}

var workloads = []workloadDef{
	{"analyze-cold", setupCold},
	{"analyze-warm", setupWarm},
	{"admit-churn", setupChurn},
}

// ---- analyze-cold ----

// coldClients is the analyze-cold client count. Two closed-loop
// clients kept both CPUs of a 2-CPU host busy with kernels, and the
// host's slow spells then moved throughput and median latency by a
// fifth to two fifths from run to run; one client leaves the other CPU
// to the HTTP stack, the runtime and the garbage collector.
const coldClients = 1

// coldMaxRate bounds the analyze-cold request rate the set list is
// sized for: one client completed 300 to 550 a second on a 2-CPU VM
// whose speed drifted. The closed loop ends early if it ever runs out
// of sets, and its figures then come from the seconds it ran.
const coldMaxRate = 900

// coldSets draws n Figure-3 sets: Unconstrained or Heterogeneous
// profile, N ∈ {10, 25, 50}, target US on the paper's 5..100 axis.
// Set i depends only on (seed, i), so generation is parallel.
func coldSets(seed uint64, n, workers int) []*task.Set {
	sets := make([]*task.Set, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				r := rand.New(rand.NewPCG(seed, coldStream|uint64(i)))
				size := [...]int{10, 25, 50}[r.IntN(3)]
				p := workload.Unconstrained(size)
				if r.IntN(2) == 1 {
					p = workload.Heterogeneous(size)
				}
				sets[i], _ = p.GenerateWithTargetUS(r, float64(5*(1+r.IntN(20))))
			}
		}(w)
	}
	wg.Wait()
	return sets
}

func setupCold(e *env, cfg runConfig) error {
	e.eng = engine.New(engine.Config{})
	e.sets = coldSets(cfg.seed, coldMaxRate*cfg.seconds*cfg.windows(), cfg.conns)
	e.columns = workload.FigureDeviceColumns
	e.ops = make([]op, len(e.sets))
	for i := range e.ops {
		e.ops[i] = op{kind: opAnalyze, ref: int32(i)}
	}
	e.primary = opAnalyze
	e.plan = plan{
		lanes:      []*lane{indexLane(len(e.ops))},
		workerLane: make([]int, coldClients),
		stop:       cfg.window() * time.Duration(cfg.windows()),
		traceFrom:  traceFrom(cfg),
	}
	e.allocResponses()
	return e.serve(server.New(server.Config{Engine: e.eng}), coldClients)
}

func traceFrom(cfg runConfig) time.Duration {
	if cfg.trace {
		return cfg.window()
	}
	return 1 << 62
}

// ---- analyze-warm ----

// warmRate is the analyze-warm offered rate, about half the 14,000
// requests per second two closed-loop connections complete on a 2-CPU
// host.
const warmRate = 7000

const warmPoolSize = 256

// warmPool returns the paper's Tables 1–3 plus small random sets of 2–5
// tasks on the tables' 10-column device.
func warmPool(seed uint64) []*task.Set {
	pool := []*task.Set{workload.Table1(), workload.Table2(), workload.Table3()}
	r := rand.New(rand.NewPCG(seed, warmStream))
	for len(pool) < warmPoolSize {
		n := 2 + r.IntN(4)
		p := workload.Profile{Name: "small", N: n, AreaMin: 1, AreaMax: workload.TableDeviceColumns,
			PeriodMin: 5, PeriodMax: 20, UtilMin: 0, UtilMax: 1}
		s, _ := p.GenerateWithTargetUS(r, 0.5+9.5*r.Float64())
		pool = append(pool, s)
	}
	return pool
}

// warmStreamOps draws n requests over the pool: each permutes its set's
// task order, and one in four asks for the certificate.
func warmStreamOps(seed uint64, pool []*task.Set, n int) []op {
	r := rand.New(rand.NewPCG(seed, warmStream|1))
	ops := make([]op, n)
	for i := range ops {
		k := r.IntN(len(pool))
		o := op{kind: opAnalyze, ref: int32(k)}
		for j, p := range r.Perm(pool[k].Len()) {
			o.perm[j] = uint8(p)
		}
		o.explain = r.IntN(4) == 0
		ops[i] = o
	}
	return ops
}

func setupWarm(e *env, cfg runConfig) error {
	e.eng = engine.New(engine.Config{})
	e.sets = warmPool(cfg.seed)
	e.columns, e.permuted = workload.TableDeviceColumns, true
	n := int(warmRate * cfg.window().Seconds() * float64(cfg.windows()))
	e.ops = warmStreamOps(cfg.seed, e.sets, n)
	e.primary = opAnalyze
	e.plan = openPlan(cfg, n, warmRate, []*lane{indexLane(n)}, make([]int, cfg.conns))
	e.allocResponses()
	if err := e.serve(server.New(server.Config{Engine: e.eng}), cfg.conns); err != nil {
		return err
	}
	for _, s := range e.sets {
		req := api.AnalyzeRequest{Columns: workload.TableDeviceColumns, Tests: analyzeTests, Taskset: s}
		if _, err := e.clients[0].Analyze(context.Background(), req); err != nil {
			return fmt.Errorf("warming the pool: %w", err)
		}
	}
	return nil
}

func indexLane(n int) *lane {
	l := &lane{ops: make([]int, n)}
	for i := range l.ops {
		l.ops[i] = i
	}
	return l
}

// openPlan schedules n operations at a fixed rate. A backlog may run
// the generator past the last send time by at most one window.
func openPlan(cfg runConfig, n int, rate float64, lanes []*lane, workerLane []int) plan {
	due := fixedRate(n, rate)
	return plan{
		open:       true,
		due:        due,
		lanes:      lanes,
		workerLane: workerLane,
		stop:       cfg.window() * time.Duration(cfg.windows()+1),
		traceFrom:  traceFrom(cfg),
	}
}

// ---- admit-churn ----

// churnRate is the admit-churn offered rate: about half of the 2,000
// operations per second two closed-loop connections complete of this mix
// with fsync=always on a 2-CPU host. It keeps the paper-sized tenants'
// connection about half busy; at 600, with the CPUs idle between most
// requests, the admit median moved twice as much from run to run.
const churnRate = 1000

const (
	churnColumns = workload.FigureDeviceColumns
	paperUS      = 0.35 // target US of the paper-sized draws, as in BenchmarkAdmitRelease
	readShare    = 0.30 // of operations while a tenant is inside its band
	admitShare   = 0.35 // the rest are releases
	oversize     = 0.10 // of admits: wider than the device, always rejected
	outside      = 0.10 // of admits: area outside the resident range
)

// tenantSpec is one GN2 controller of admit-churn and the residents it
// holds when the timed window starts.
type tenantSpec struct {
	name    string
	large   bool
	initial []task.Task
}

// band is the resident count the generator keeps a tenant within.
func (t *tenantSpec) band() (lo, hi int) {
	if t.large {
		return 95, 105
	}
	return 8, 12
}

// mirror follows one tenant's resident set through the generated
// stream. A paper-sized tenant's admits are decided by a controller of
// its own, which is cheap at that size; a large tenant's light tasks
// use under one column of the 100 in total and stay narrow, so every
// one of them is admitted. The oracle checks both against a
// from-scratch reference after the run.
type mirror struct {
	spec  *tenantSpec
	ctrl  *admission.Controller // paper-sized tenants only
	live  []task.Task           // residents, oldest admission first
	seq   int
	draws *rand.Rand
}

func (m *mirror) nextName() string {
	m.seq++
	return fmt.Sprintf("%s.%d", m.spec.name, m.seq)
}

// candidate draws a task of the tenant's population.
func (m *mirror) candidate() task.Task {
	r := m.draws
	var tk task.Task
	if m.spec.large {
		tk = task.Task{
			C: timeunit.FromUnits(int64(1 + r.IntN(5))),
			T: timeunit.FromUnits(int64(2000 + 37*r.IntN(29))),
			A: 1 + r.IntN(3),
		}
		tk.D = tk.T
	} else {
		s, _ := workload.Unconstrained(10).GenerateWithTargetUS(r, paperUS)
		tk = s.Tasks[r.IntN(s.Len())]
	}
	tk.Name = m.nextName()
	return tk
}

func (m *mirror) areaRange() (lo, hi int) {
	lo, hi = churnColumns, 1
	for _, t := range m.live {
		lo, hi = min(lo, t.A), max(hi, t.A)
	}
	return lo, hi
}

// outsideArea returns an area outside the resident range, or an inside
// one when the range leaves no room. Large tenants stay within 8
// columns so their tasks remain light.
func (m *mirror) outsideArea() int {
	r := m.draws
	lo, hi := m.areaRange()
	top := churnColumns
	if m.spec.large {
		top = 8
	}
	switch {
	case lo > 1 && (hi >= top || r.IntN(2) == 0):
		return 1 + r.IntN(lo-1)
	case hi < top:
		return hi + 1 + r.IntN(top-hi)
	}
	return lo + r.IntN(hi-lo+1)
}

// admit records tk if the tenant will admit it.
func (m *mirror) admit(tk task.Task) {
	if m.ctrl != nil && !m.ctrl.Request(context.Background(), tk).Admitted {
		return
	}
	m.live = append(m.live, tk)
}

func (m *mirror) release(i int) task.Task {
	tk := m.live[i]
	m.live = append(m.live[:i], m.live[i+1:]...)
	if m.ctrl != nil {
		m.ctrl.Release(tk.Name)
	}
	return tk
}

// churnTenants builds the two paper-sized and the two large tenants and
// their initial residents.
func churnTenants(seed uint64) ([]*tenantSpec, []*mirror, error) {
	names := []string{"paper-a", "paper-b", "large-a", "large-b"}
	var specs []*tenantSpec
	var ms []*mirror
	for i, name := range names {
		spec := &tenantSpec{name: name, large: i >= 2}
		m := &mirror{spec: spec, draws: rand.New(rand.NewPCG(seed, churnStream|uint64(i)))}
		if !spec.large {
			ctrl, err := admission.NewController(churnColumns, core.GN2Test{})
			if err != nil {
				return nil, nil, err
			}
			m.ctrl = ctrl
		}
		for len(m.live) < 10 || (spec.large && len(m.live) < 100) {
			m.admit(m.candidate())
		}
		spec.initial = append([]task.Task(nil), m.live...)
		specs, ms = append(specs, spec), append(ms, m)
	}
	return specs, ms, nil
}

// tenantWeights is each tenant's share of the operations. A large
// tenant's admit costs about 12 ms at the median, most of it a full
// run, against under 1 ms for a paper-sized one. The large tenants'
// connection saturates near 100 operations per second, so they get 60.
var tenantWeights = []float64{0.47, 0.47, 0.03, 0.03}

// churnOps draws n operations over the tenants, and the tasks they
// admit and release.
func churnOps(seed uint64, ms []*mirror, n int) ([]op, []task.Task) {
	r := rand.New(rand.NewPCG(seed, churnStream|0xff))
	ops := make([]op, n)
	var tasks []task.Task
	for i := range ops {
		t, w := 0, r.Float64()
		for w >= tenantWeights[t] && t < len(tenantWeights)-1 {
			w -= tenantWeights[t]
			t++
		}
		m := ms[t]
		lo, hi := m.spec.band()
		x := r.Float64()
		kind := opRelease
		switch cnt := len(m.live); {
		case cnt <= lo:
			kind = opAdmit
		case cnt >= hi:
		case x < readShare:
			kind = opRead
		case x < readShare+admitShare:
			kind = opAdmit
		}
		o := op{kind: kind, ref: int32(t), task: int32(len(tasks))}
		switch kind {
		case opAdmit:
			tk := m.candidate()
			y := r.Float64()
			switch {
			case y < oversize:
				tk.A = churnColumns + 1 + r.IntN(churnColumns)
			case y < oversize+outside:
				tk.A = m.outsideArea()
				m.admit(tk)
			default:
				alo, ahi := m.areaRange()
				tk.A = alo + r.IntN(ahi-alo+1)
				m.admit(tk)
			}
			tasks = append(tasks, tk)
		case opRelease:
			i := len(m.live) - 1 // LIFO: the newest resident
			if r.IntN(2) == 0 {
				i = r.IntN(len(m.live))
			}
			tasks = append(tasks, m.release(i))
		}
		ops[i] = o
	}
	return ops, tasks
}

func setupChurn(e *env, cfg runConfig) error {
	e.eng = engine.New(engine.Config{})
	tenants, ms, err := churnTenants(cfg.seed)
	if err != nil {
		return err
	}
	e.tenants = tenants
	n := int(churnRate * cfg.window().Seconds() * float64(cfg.windows()))
	e.ops, e.tasks = churnOps(cfg.seed, ms, n)
	e.primary = opAdmit
	// Each tenant is pinned to one connection, so its operations reach
	// the server in generation order: the paper-sized tenants share the
	// first and the large ones the last, so cheap admits never queue
	// behind a large tenant's full run.
	lanes := make([]*lane, cfg.conns)
	workerLane := make([]int, cfg.conns)
	for w := range lanes {
		lanes[w] = &lane{}
		workerLane[w] = w
	}
	for i, o := range e.ops {
		conn := 0
		if tenants[o.ref].large {
			conn = cfg.conns - 1
		}
		l := lanes[conn]
		l.ops = append(l.ops, i)
	}
	e.plan = openPlan(cfg, n, churnRate, lanes, workerLane)
	e.allocResponses()

	if e.stateDir, err = os.MkdirTemp(cfg.out, "wal-"); err != nil {
		return err
	}
	opts := durable.Options{Dir: e.stateDir, Fsync: durable.FsyncAlways}
	if e.store, err = durable.Open(opts); err != nil {
		return err
	}
	if err := e.serve(server.New(server.Config{Engine: e.eng, Store: e.store}), cfg.conns); err != nil {
		return err
	}
	ctx := context.Background()
	for _, t := range tenants {
		if _, err := e.clients[0].CreateController(ctx, t.name, api.ControllerRequest{Columns: churnColumns, Tests: []string{"GN2"}}); err != nil {
			return fmt.Errorf("creating %s: %w", t.name, err)
		}
		for _, tk := range t.initial {
			d, err := e.clients[0].Admit(ctx, t.name, tk)
			if err != nil {
				return fmt.Errorf("populating %s: %w", t.name, err)
			}
			if !d.Admitted {
				return fmt.Errorf("populating %s: %s rejected: %s", t.name, tk.Name, d.Reason)
			}
		}
	}

	// Restart from the WAL, as fpgaschedd boots with -state-dir.
	e.stopServing()
	if err := e.store.Close(); err != nil {
		return err
	}
	e.store = nil
	start := time.Now()
	st, err := durable.Open(opts)
	if err != nil {
		return err
	}
	e.replayDur = time.Since(start)
	e.store = st
	srv := server.New(server.Config{Engine: e.eng, StartNotReady: true})
	start = time.Now()
	if err := srv.Restore(st.State()); err != nil {
		return err
	}
	e.restoreDur = time.Since(start)
	var wal server.Store = st
	if e.tr != nil {
		wal = tracedStore{inner: st, t: e.tr}
	}
	srv.AttachStore(wal)
	srv.MarkReady()
	return e.serve(srv, cfg.conns)
}
