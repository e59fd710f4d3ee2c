package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpgasched/api"
	"fpgasched/internal/cluster"
	"fpgasched/internal/core"
	"fpgasched/internal/engine"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// fleetNode is one member of an in-process test fleet.
type fleetNode struct {
	name string
	srv  *Server
	ts   *httptest.Server
}

// newTestFleet wires n servers into a static fleet over httptest
// listeners: each node's analyze path owner-routes through the others,
// exactly as n separate fpgaschedd processes started with -peers would.
// The listeners come up before the servers exist, so each handler
// late-binds to its Server.
func newTestFleet(t testing.TB, n int) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	peers := make(map[string]string, n)
	for i := range nodes {
		node := &fleetNode{name: fmt.Sprintf("node%d", i)}
		node.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			node.srv.ServeHTTP(w, r)
		}))
		nodes[i] = node
		peers[node.name] = node.ts.URL
	}
	for _, node := range nodes {
		fleet, err := cluster.New(cluster.Config{
			Self:             node.name,
			Peers:            peers,
			FetchTimeout:     5 * time.Second,
			BreakerThreshold: 2,
			BreakerCooldown:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.srv = New(Config{
			EngineConfig: engine.Config{Workers: 2, CacheSize: 128},
			Fleet:        fleet,
		})
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.ts.Close()
			node.srv.Close()
		}
	})
	return nodes
}

// ownerOf returns the fleet node owning the set's fingerprint.
func ownerOf(t testing.TB, nodes []*fleetNode, set *task.Set) (owner, other *fleetNode) {
	t.Helper()
	name := cluster.Owner([]string{nodes[0].name, nodes[1].name}, set.Fingerprint())
	for _, n := range nodes {
		if n.name == name {
			owner = n
		} else {
			other = n
		}
	}
	if owner == nil || other == nil {
		t.Fatalf("owner %q not found among the nodes", name)
	}
	return owner, other
}

// analyzeOn runs one explained single-set analysis against a node and
// returns the response.
func analyzeOn(t testing.TB, node *fleetNode, set *task.Set) api.AnalyzeResponse {
	t.Helper()
	body := fmt.Sprintf(`{"columns":10,"tests":["GN2"],"explain":true,"taskset":%s}`, setJSON(t, set))
	var out api.AnalyzeResponse
	if resp := doJSON(t, "POST", node.ts.URL+"/v1/analyze", body, &out); resp.StatusCode != 200 {
		t.Fatalf("analyze on %s: status %d", node.name, resp.StatusCode)
	}
	return out
}

// TestTwoPeerDistributedCache is the tentpole's end-to-end proof: a
// verdict analysed cold on its owner is served to a client of the other
// node with zero new analyses anywhere, byte-identical certificate
// JSON, and a writeback that makes the repeat a purely local hit.
func TestTwoPeerDistributedCache(t *testing.T) {
	nodes := newTestFleet(t, 2)
	set := workload.Table3()
	owner, other := ownerOf(t, nodes, set)

	// Cold analysis on the owner.
	coldResp := analyzeOn(t, owner, set)
	ownerStats := owner.srv.engine.Stats()
	if ownerStats.Analyses == 0 {
		t.Fatalf("owner ran no analyses: %+v", ownerStats)
	}

	// The same set through the other node: must be answered from the
	// owner's cache with zero new analyses on either engine.
	warmResp := analyzeOn(t, other, set)
	if got := owner.srv.engine.Stats().Analyses; got != ownerStats.Analyses {
		t.Fatalf("owner analyses grew %d -> %d on a peer fetch", ownerStats.Analyses, got)
	}
	if got := other.srv.engine.Stats().Analyses; got != 0 {
		t.Fatalf("non-owner ran %d analyses, want 0", got)
	}
	cold, err := json.Marshal(coldResp.Result.Verdicts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := json.Marshal(warmResp.Result.Verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != string(warm) {
		t.Fatalf("peer-served certificate differs from the owner's:\nowner: %s\npeer:  %s", cold, warm)
	}

	// The cluster counters agree: one remote hit on the non-owner, one
	// lookup served by the owner.
	var ownerMetrics, otherMetrics api.MetricsResponse
	doJSON(t, "GET", owner.ts.URL+"/metrics", "", &ownerMetrics)
	doJSON(t, "GET", other.ts.URL+"/metrics", "", &otherMetrics)
	if ownerMetrics.Cluster == nil || ownerMetrics.Cluster.LookupHits != 1 {
		t.Fatalf("owner cluster metrics = %+v, want 1 served lookup hit", ownerMetrics.Cluster)
	}
	if otherMetrics.Cluster == nil || otherMetrics.Cluster.RemoteHits != 1 {
		t.Fatalf("non-owner cluster metrics = %+v, want 1 remote hit", otherMetrics.Cluster)
	}
	if pm := otherMetrics.Cluster.Peers[owner.name]; pm.FetchHits != 1 || pm.FetchErrors != 0 {
		t.Fatalf("peer counters = %+v, want exactly 1 clean fetch hit", pm)
	}

	// The writeback seeded the non-owner's LRU: a repeat is local.
	analyzeOn(t, other, set)
	doJSON(t, "GET", other.ts.URL+"/metrics", "", &otherMetrics)
	if otherMetrics.Cluster.RemoteHits != 1 {
		t.Fatalf("repeat request went back to the network: %+v", otherMetrics.Cluster)
	}
}

// TestTwoPeerPermutedSetSharesVerdict sends a permuted copy of the set
// to the non-owner: the fingerprint is order-free, so it still hits the
// owner's cache, and the checks come back remapped to the caller's
// task order.
func TestTwoPeerPermutedSetSharesVerdict(t *testing.T) {
	nodes := newTestFleet(t, 2)
	set := workload.Table3()
	owner, other := ownerOf(t, nodes, set)
	analyzeOn(t, owner, set)

	perm := set.Clone()
	for i, j := 0, len(perm.Tasks)-1; i < j; i, j = i+1, j-1 {
		perm.Tasks[i], perm.Tasks[j] = perm.Tasks[j], perm.Tasks[i]
	}
	out := analyzeOn(t, other, perm)
	if got := other.srv.engine.Stats().Analyses; got != 0 {
		t.Fatalf("permuted set re-analysed (%d analyses), want a remote hit", got)
	}
	v := out.Result.Verdicts[0]
	if !v.Schedulable {
		t.Fatalf("verdict = %+v, want schedulable (Table 3 under GN2)", v)
	}
	if len(v.Checks) != perm.Len() {
		t.Fatalf("explained verdict carries %d checks, want %d", len(v.Checks), perm.Len())
	}
	for i, chk := range v.Checks {
		if chk.TaskIndex != i {
			t.Fatalf("checks not in caller order: %+v", v.Checks)
		}
	}
}

// TestTwoPeerDeadOwnerDegrades kills the owning node and verifies the
// survivor answers every request itself with no client-visible errors,
// recording the degradation in its peer counters.
func TestTwoPeerDeadOwnerDegrades(t *testing.T) {
	nodes := newTestFleet(t, 2)
	set := workload.Table3()
	owner, other := ownerOf(t, nodes, set)

	owner.ts.Close() // the owner dies before ever seeing the set

	out := analyzeOn(t, other, set)
	if !out.Result.Schedulable {
		t.Fatalf("degraded verdict = %+v, want schedulable", out.Result)
	}
	if got := other.srv.engine.Stats().Analyses; got == 0 {
		t.Fatal("survivor must have analysed locally")
	}
	var m api.MetricsResponse
	doJSON(t, "GET", other.ts.URL+"/metrics", "", &m)
	if m.Cluster.RemoteFallbacks == 0 {
		t.Fatalf("cluster metrics = %+v, want a recorded fallback", m.Cluster)
	}
	if pm := m.Cluster.Peers[owner.name]; pm.FetchErrors == 0 {
		t.Fatalf("peer counters = %+v, want a fetch error against the dead owner", pm)
	}

	// Repeats are served from the survivor's now-warm cache: no
	// further fetch attempts pile up against the corpse.
	analyzeOn(t, other, set)
	var m2 api.MetricsResponse
	doJSON(t, "GET", other.ts.URL+"/metrics", "", &m2)
	if m2.Cluster.Peers[owner.name].FetchErrors != m.Cluster.Peers[owner.name].FetchErrors {
		t.Fatalf("repeat of a locally cached set re-probed the dead owner")
	}
}

// postRaw POSTs body to url and returns the status and raw response
// bytes, for byte-for-byte comparisons of wire responses.
func postRaw(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// shuffled returns a copy of s with its tasks in a random order.
func shuffled(s *task.Set, r *rand.Rand) *task.Set {
	out := s.Clone()
	r.Shuffle(len(out.Tasks), func(i, j int) { out.Tasks[i], out.Tasks[j] = out.Tasks[j], out.Tasks[i] })
	return out
}

// TestPeerServedMatchesOwnerLocalHit pins that a peer-served verdict is
// indistinguishable from a local cache hit: for every registry test
// (composites with sub-verdicts included), random sets sent in a
// permuted order, and explain on and off, the non-owner's response —
// built from the owner's fetched canonical certificate — must be
// byte-identical to the owner's own response to the same request, which
// the owner serves from its cache. Unit-area sets on 4 columns make the
// multiprocessor adapters analyze for real, so their accepting
// certificates are covered too.
func TestPeerServedMatchesOwnerLocalHit(t *testing.T) {
	type corpusSet struct {
		columns int
		set     *task.Set
	}
	var corpus []corpusSet
	r := workload.Rand(7)
	for i := 0; i < 25; i++ {
		corpus = append(corpus, corpusSet{workload.FigureDeviceColumns, workload.Unconstrained(6).Generate(r)})
	}
	unit := workload.Profile{
		Name: "unit", N: 6, AreaMin: 1, AreaMax: 1,
		PeriodMin: 5, PeriodMax: 20, UtilMin: 0.1, UtilMax: 0.9,
	}
	r = workload.Rand(11)
	for i := 0; i < 25; i++ {
		corpus = append(corpus, corpusSet{4, unit.Generate(r)})
	}
	names, err := json.Marshal(core.TestNames())
	if err != nil {
		t.Fatal(err)
	}
	perms := rand.New(rand.NewPCG(3, 4))
	for _, explain := range []bool{false, true} {
		// A fresh fleet per mode, so every non-owner request misses its
		// own cache and is served by a fetch.
		nodes := newTestFleet(t, 2)
		for i, c := range corpus {
			owner, other := ownerOf(t, nodes, c.set)
			body := func(s *task.Set) string {
				return fmt.Sprintf(`{"columns":%d,"tests":%s,"explain":%v,"taskset":%s}`, c.columns, names, explain, setJSON(t, s))
			}
			if code, out := postRaw(t, owner.ts.URL+"/v1/analyze", body(c.set)); code != 200 {
				t.Fatalf("set %d: cold analyze on the owner: %d %s", i, code, out)
			}
			permuted := body(shuffled(c.set, perms))
			ownerAnalyses := owner.srv.engine.Stats().Analyses
			code, local := postRaw(t, owner.ts.URL+"/v1/analyze", permuted)
			if code != 200 || owner.srv.engine.Stats().Analyses != ownerAnalyses {
				t.Fatalf("set %d: permuted repeat on the owner was not a cache hit: %d %s", i, code, local)
			}
			otherAnalyses := other.srv.engine.Stats().Analyses
			remoteHits := other.srv.fleet.Metrics().RemoteHits
			code, peer := postRaw(t, other.ts.URL+"/v1/analyze", permuted)
			if code != 200 || other.srv.engine.Stats().Analyses != otherAnalyses {
				t.Fatalf("set %d: non-owner analysed locally: %d %s", i, code, peer)
			}
			if got := other.srv.fleet.Metrics().RemoteHits - remoteHits; got != uint64(len(core.TestNames())) {
				t.Fatalf("set %d: %d remote hits, want one per test (%d)", i, got, len(core.TestNames()))
			}
			if !bytes.Equal(local, peer) {
				t.Fatalf("set %d explain=%v: peer-served response differs from the owner's local hit:\nowner: %s\npeer:  %s",
					i, explain, local, peer)
			}
		}
	}
}

// TestPeerMalformedCertificateAnalysedLocally serves, from a fake peer
// that owns the set, a cache "hit" whose certificate does not
// reconstruct (a non-rational lhs). The node must count it as a remote
// fallback, analyse locally, answer exactly what a single-node server
// answers, and cache its own verdict rather than the garbage.
func TestPeerMalformedCertificateAnalysedLocally(t *testing.T) {
	var lookups atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lookups.Add(1)
		json.NewEncoder(w).Encode(api.CacheLookupResponse{Hit: true, Verdict: &api.Verdict{
			Test: "GN2", Schedulable: true,
			Checks: []api.Check{{TaskIndex: 0, LHS: "not-a-rational", RHS: "1", Satisfied: true}},
		}})
	}))
	defer fake.Close()
	fleet, err := cluster.New(cluster.Config{
		Self:  "a",
		Peers: map[string]string{"a": "http://127.0.0.1:1", "b": fake.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{EngineConfig: engine.Config{Workers: 2, CacheSize: 16}, Fleet: fleet})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	_, single := newTestServer(t)

	// A set the fake peer owns.
	var set *task.Set
	for seed := uint64(1); set == nil; seed++ {
		s := workload.Unconstrained(5).Generate(workload.Rand(seed))
		if cluster.Owner([]string{"a", "b"}, s.Fingerprint()) == "b" {
			set = s
		}
	}
	for _, explain := range []bool{true, false} {
		body := fmt.Sprintf(`{"columns":%d,"tests":["GN2"],"explain":%v,"taskset":%s}`,
			workload.FigureDeviceColumns, explain, setJSON(t, set))
		code, got := postRaw(t, ts.URL+"/v1/analyze", body)
		_, want := postRaw(t, single.URL+"/v1/analyze", body)
		if code != 200 || !bytes.Equal(got, want) {
			t.Fatalf("explain=%v: response to a malformed peer certificate = %d %s, want the local analysis %s",
				explain, code, got, want)
		}
	}
	m := fleet.Metrics()
	if m.RemoteHits != 0 || m.RemoteFallbacks != 1 {
		t.Fatalf("cluster metrics = %+v, want one remote fallback and no remote hit", m)
	}
	if n := lookups.Load(); n != 1 {
		t.Fatalf("fake peer saw %d lookups, want 1: the local verdict must be cached and reused", n)
	}
	if a := srv.engine.Stats().Analyses; a != 1 {
		t.Fatalf("engine analyses = %d, want 1 local analysis", a)
	}
}

func TestCacheLookupEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	set := workload.Table3()
	fp := set.Fingerprint().String()

	// A miss is a well-formed 200, and a lookup never analyses.
	body := fmt.Sprintf(`{"columns":10,"test":"GN2","fingerprint":%q}`, fp)
	var miss api.CacheLookupResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup", body, &miss); resp.StatusCode != 200 || miss.Hit {
		t.Fatalf("cold lookup = %d %+v, want 200 miss", resp.StatusCode, miss)
	}
	if st := srv.engine.Stats(); st.Analyses != 0 {
		t.Fatalf("lookup triggered %d analyses — must be structurally impossible", st.Analyses)
	}

	// Warm the cache through the analyze path, then hit.
	abody := fmt.Sprintf(`{"columns":10,"tests":["GN2"],"taskset":%s}`, setJSON(t, set))
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", abody, nil); resp.StatusCode != 200 {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	var hit api.CacheLookupResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup", body, &hit); resp.StatusCode != 200 || !hit.Hit {
		t.Fatalf("warm lookup = %d %+v, want hit", resp.StatusCode, hit)
	}
	if hit.Verdict == nil || !hit.Verdict.Schedulable || len(hit.Verdict.Checks) != set.Len() {
		t.Fatalf("lookup verdict = %+v, want the full canonical certificate", hit.Verdict)
	}

	// Error taxonomy.
	var e api.Error
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup",
		fmt.Sprintf(`{"columns":10,"test":"nope","fingerprint":%q}`, fp), &e); resp.StatusCode != 400 || e.Code != api.CodeUnknownTest {
		t.Fatalf("unknown test = %d %+v", resp.StatusCode, e)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup",
		`{"columns":10,"test":"GN2","fingerprint":"zz"}`, &e); resp.StatusCode != 400 || e.Code != api.CodeInvalidRequest {
		t.Fatalf("bad fingerprint = %d %+v", resp.StatusCode, e)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup",
		fmt.Sprintf(`{"columns":0,"test":"GN2","fingerprint":%q}`, fp), &e); resp.StatusCode != 400 || e.Code != api.CodeInvalidDevice {
		t.Fatalf("bad columns = %d %+v", resp.StatusCode, e)
	}
}

func TestReadyzDraining(t *testing.T) {
	srv, ts := newTestServer(t)
	var out map[string]string
	if resp := doJSON(t, "GET", ts.URL+"/readyz", "", &out); resp.StatusCode != 200 || out["status"] != "ok" {
		t.Fatalf("readyz = %d %v, want 200 ok", resp.StatusCode, out)
	}
	srv.SetDraining()
	var e api.Error
	if resp := doJSON(t, "GET", ts.URL+"/readyz", "", &e); resp.StatusCode != 503 || e.Code != api.CodeNotReady {
		t.Fatalf("draining readyz = %d %+v, want 503 not_ready", resp.StatusCode, e)
	}
	// Liveness is unaffected: the process still serves.
	var h map[string]string
	if resp := doJSON(t, "GET", ts.URL+"/healthz", "", &h); resp.StatusCode != 200 || h["status"] != "ok" {
		t.Fatalf("healthz while draining = %d %v, want 200 ok", resp.StatusCode, h)
	}
}

// TestMetricsRouteCountersConcurrent hammers instrumented routes from
// many goroutines while concurrently reading /metrics; under -race this
// pins the route-counter path (statusRecorder + the mmu-guarded map) as
// data-race free, and afterwards the counters must account for every
// request exactly.
func TestMetricsRouteCountersConcurrent(t *testing.T) {
	_, ts := newTestServer(t)
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	var m api.MetricsResponse
	doJSON(t, "GET", ts.URL+"/metrics", "", &m)
	if got := m.HTTP["healthz"].Requests; got != workers*perWorker {
		t.Fatalf("healthz requests = %d, want %d", got, workers*perWorker)
	}
	// The final read observed all prior metrics requests plus itself.
	if got := m.HTTP["metrics"].Requests; got < workers*perWorker {
		t.Fatalf("metrics requests = %d, want at least %d", got, workers*perWorker)
	}
	if m.HTTP["healthz"].Errors != 0 {
		t.Fatalf("healthz errors = %d, want 0", m.HTTP["healthz"].Errors)
	}
}
