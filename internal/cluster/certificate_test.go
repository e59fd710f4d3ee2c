package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"fpgasched/api"
	"fpgasched/internal/core"
	"fpgasched/internal/engine"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// canonicalVerdict analyzes the canonical reordering of set — the exact
// verdict the engine caches under the set's fingerprint and the owner
// node serves on POST /v1/cache/lookup.
func canonicalVerdict(t *testing.T, tt core.Test, columns int, set *task.Set, perm []int) core.Verdict {
	t.Helper()
	tasks := make([]task.Task, len(perm))
	for c, orig := range perm {
		tasks[c] = set.Tasks[orig]
	}
	v := tt.Analyze(context.Background(), core.NewDevice(columns), task.NewSet(tasks...))
	if v.Err != nil {
		t.Fatalf("%s: analysis error: %v", tt.Name(), v.Err)
	}
	return v
}

// remapMatchesEngine checks, for every registry test and both explain
// modes, that a peer-served response is byte-identical to a local cache
// hit: the owner's canonical certificate, reconstructed and remapped to
// the request order through engine.RemapVerdict, must serialize exactly
// as the core verdict remapped the same way.
func remapMatchesEngine(t *testing.T, columns int, sets []*task.Set) {
	t.Helper()
	tests, err := core.TestsByName(core.TestNames())
	if err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		perm := set.CanonicalPerm()
		for _, tt := range tests {
			v := canonicalVerdict(t, tt, columns, set, perm)
			back, err := VerdictFromCertificate(api.VerdictFromCore(v, true)) // what the owner serves
			if err != nil {
				t.Fatalf("set %d test %s: reconstruct: %v", i, tt.Name(), err)
			}
			for _, explain := range []bool{false, true} {
				want, err := json.Marshal(api.VerdictFromCore(engine.RemapVerdict(v, perm, !explain), explain))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(api.VerdictFromCore(engine.RemapVerdict(back, perm, !explain), explain))
				if err != nil {
					t.Fatal(err)
				}
				if string(want) != string(got) {
					t.Fatalf("set %d test %s explain=%v:\nlocal: %s\npeer:  %s",
						i, tt.Name(), explain, want, got)
				}
			}
		}
	}
}

// TestRemapCertificateMatchesEngine runs the remap check on generated
// sets in their non-canonical generation order, so the remap is never
// the identity.
func TestRemapCertificateMatchesEngine(t *testing.T) {
	r := workload.Rand(7)
	var sets []*task.Set
	for i := 0; i < 25; i++ {
		sets = append(sets, workload.Unconstrained(6).Generate(r))
	}
	remapMatchesEngine(t, workload.FigureDeviceColumns, sets)
}

// TestRemapCertificateMatchesEngineUnitArea re-runs the remap check on
// unit-area sets. Unconstrained sets above only drive the mpsched
// adapters through their unit-area-gate rejection; with every area 1
// the MP tests analyze for real, so this covers the accept path's
// certificates (per-processor partition witnesses included).
func TestRemapCertificateMatchesEngineUnitArea(t *testing.T) {
	p := workload.Profile{
		Name: "unit", N: 6, AreaMin: 1, AreaMax: 1,
		PeriodMin: 5, PeriodMax: 20, UtilMin: 0.1, UtilMax: 0.9,
	}
	r := workload.Rand(11)
	var sets []*task.Set
	for i := 0; i < 25; i++ {
		sets = append(sets, p.Generate(r))
	}
	remapMatchesEngine(t, 4, sets)
}

// TestCertificateRoundTrip pins the losslessness that makes the
// peer-fetch writeback sound: certificate → core.Verdict → certificate
// is byte-identical, so a verdict seeded into the local cache from a
// peer serves future requests exactly as a locally analyzed one would.
// The corpus is the paper's Tables 1–3 on their device plus unit-area
// sets on 4 columns, where the multiprocessor adapters analyze for real
// and their accepting certificates (per-processor partition witnesses
// included) are exercised.
func TestCertificateRoundTrip(t *testing.T) {
	tests, err := core.TestsByName(core.TestNames())
	if err != nil {
		t.Fatal(err)
	}
	type corpusSet struct {
		name    string
		columns int
		set     *task.Set
	}
	var corpus []corpusSet
	for i, set := range []*task.Set{workload.Table1(), workload.Table2(), workload.Table3()} {
		corpus = append(corpus, corpusSet{fmt.Sprintf("table %d", i+1), workload.TableDeviceColumns, set})
	}
	unit := workload.Profile{
		Name: "unit", N: 6, AreaMin: 1, AreaMax: 1,
		PeriodMin: 5, PeriodMax: 20, UtilMin: 0.1, UtilMax: 0.9,
	}
	r := workload.Rand(11)
	for i := 0; i < 25; i++ {
		corpus = append(corpus, corpusSet{fmt.Sprintf("unit-area set %d", i), 4, unit.Generate(r)})
	}
	for _, c := range corpus {
		perm := c.set.CanonicalPerm()
		for _, tt := range tests {
			v := canonicalVerdict(t, tt, c.columns, c.set, perm)
			cert := api.VerdictFromCore(v, true)
			back, err := VerdictFromCertificate(cert)
			if err != nil {
				t.Fatalf("%s test %s: reconstruct: %v", c.name, tt.Name(), err)
			}
			want, _ := json.Marshal(cert)
			got, _ := json.Marshal(api.VerdictFromCore(back, true))
			if string(want) != string(got) {
				t.Fatalf("%s test %s round trip drifted:\nbefore: %s\nafter:  %s",
					c.name, tt.Name(), want, got)
			}
		}
	}
}

func TestVerdictFromCertificateRejectsMalformed(t *testing.T) {
	bad := api.Verdict{Checks: []api.Check{{LHS: "not-a-rational"}}}
	if _, err := VerdictFromCertificate(bad); err == nil {
		t.Fatal("malformed LHS must be rejected, not cached")
	}
	bad = api.Verdict{SubVerdicts: []api.Verdict{{Checks: []api.Check{{Lambda: "1/"}}}}}
	if _, err := VerdictFromCertificate(bad); err == nil {
		t.Fatal("malformed sub-verdict must be rejected")
	}
}
