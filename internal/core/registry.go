package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Scheduler-validity labels for TestInfo.Validity. A test is listed
// under the most permissive label it is sound for: "both" means valid
// under EDF-NF and EDF-FkF (EDF-NF dominates EDF-FkF, so every FkF-valid
// test is also NF-valid), "nf" means EDF-NF only, "fkf" marks the
// FkF-oriented composite. "partitioned" marks the static-partitioning
// test: its acceptance certifies partitioned EDF (its own runtime
// policy), NOT the global EDF-NF/FkF policies, so clients gating global
// admission must never select it. The MP-* baselines carry "both":
// they only accept unit-area sets, on which EDF-NF and EDF-FkF both
// degenerate to global multiprocessor EDF.
const (
	ValidityBoth        = "both"
	ValidityNF          = "nf"
	ValidityFkF         = "fkf"
	ValidityPartitioned = "partitioned"
)

// TestInfo describes one registry entry: the canonical identifier, a
// one-line human description, and the scheduler classes the test is
// sound for. It is the wire form of GET /v1/tests entries (api.TestInfo
// is an alias), so the JSON tags are frozen by the api golden files.
type TestInfo struct {
	// Name is the canonical identifier TestByName resolves.
	Name string `json:"name"`
	// Description is a one-line summary of the test.
	Description string `json:"description"`
	// Validity is the scheduler class the test is sound for: "both"
	// (EDF-NF and EDF-FkF), "nf" (EDF-NF only) or "fkf" (the EDF-FkF
	// composite). Clients gating admission for EDF-FkF must only select
	// tests with validity "both" or "fkf".
	Validity string `json:"validity"`
}

// registry is the single table behind TestByName, TestNames and
// TestInfos, so the resolvable identifiers, the advertised ones and
// their metadata cannot drift. Matching is case-insensitive; the listed
// spelling is canonical.
var registry = []struct {
	name     string
	desc     string
	validity string
	build    func() Test
}{
	{"DP", "Theorem 1: corrected integer-area Danne–Platzner utilization bound", ValidityBoth,
		func() Test { return DPTest{} }},
	{"DP-real", "Theorem 1 with the original real-valued-area bound A(H)−Amax", ValidityBoth,
		func() Test { return DPTest{RealValuedAlpha: true} }},
	{"GN1", "Theorem 2: BCL-style interference test exploiting per-task area slack", ValidityNF,
		func() Test { return GN1Test{} }},
	{"GN1-Dk", "Theorem 2 with BCL window normalisation (βi = Wi/Dk)", ValidityNF,
		func() Test { return GN1Test{Variant: GN1VariantBCL} }},
	{"GN2", "Theorem 3: BAK2-style busy-interval test with λ-parameterised workload bound", ValidityBoth,
		func() Test { return GN2Test{} }},
	{"GN2x", "Theorem 3 with the extended λ candidate search (accepts a superset of GN2)", ValidityBoth,
		func() Test { return GN2Test{Options: GN2Options{ExtendedLambdaSearch: true}} }},
	{"any-nf", "any-of composite of all tests valid under EDF-NF (DP, GN1, GN2)", ValidityNF,
		func() Test { return ForNF() }},
	{"any-fkf", "any-of composite of the tests valid under EDF-FkF (DP, GN2)", ValidityFkF,
		func() Test { return ForFkF() }},
	{"MP-GFB", "Goossens–Funk–Baruah utilization bound for global EDF on m = A(H) processors (unit-area sets only)", ValidityBoth,
		func() Test { return MPTest{Kind: MPGFB} }},
	{"MP-BCL", "Bertogna–Cirinei–Lipari interference test for global EDF on m = A(H) processors (unit-area sets only)", ValidityBoth,
		func() Test { return MPTest{Kind: MPBCL} }},
	{"MP-BAK2", "Baker's λ-parameterised busy-interval test for global EDF on m = A(H) processors (unit-area sets only)", ValidityBoth,
		func() Test { return MPTest{Kind: MPBAK2} }},
	{"partition", "first-fit-decreasing static partitioning with per-partition uniprocessor EDF (certifies partitioned EDF, not global)", ValidityPartitioned,
		func() Test { return PartitionTest{} }},
}

// TestByName resolves a test identifier to a Test. Identifiers are
// case-insensitive and match the fpgasched CLI's -tests vocabulary:
//
//	DP      Theorem 1 (corrected integer-area Danne–Platzner bound)
//	DP-real Theorem 1 with the original real-valued α
//	GN1     Theorem 2 (EDF-NF only)
//	GN1-Dk  Theorem 2 with BCL window normalisation
//	GN2     Theorem 3
//	GN2x    Theorem 3 with the extended λ candidate search
//	any-nf  composite of all tests valid under EDF-NF
//	any-fkf composite of the tests valid under EDF-FkF
//	MP-GFB  Goossens–Funk–Baruah multiprocessor bound (unit areas)
//	MP-BCL  Bertogna–Cirinei–Lipari multiprocessor test (unit areas)
//	MP-BAK2 Baker's multiprocessor busy-interval test (unit areas)
//	partition first-fit-decreasing partitioned EDF
//
// It is the single registry shared by the CLI and the analysis server, so
// wire names stay in lockstep.
func TestByName(name string) (Test, error) {
	n := strings.TrimSpace(name)
	for _, e := range registry {
		if strings.EqualFold(e.name, n) {
			return e.build(), nil
		}
	}
	return nil, fmt.Errorf("unknown test %q (known: %s)", name, strings.Join(TestNames(), ", "))
}

// registryIDs maps each registry test's Name(), the engine's cache key,
// to its identifier. The two differ for the composites: "any-nf"
// reports "any(DP|GN1|GN2)".
var registryIDs = sync.OnceValue(func() map[string]string {
	m := make(map[string]string, len(registry))
	for _, e := range registry {
		m[e.build().Name()] = e.name
	}
	return m
})

// TestID returns the registry identifier that TestByName resolves to a
// test reporting t.Name(), or t.Name() itself for a test outside the
// registry. Peers name a test by its identifier on the wire.
func TestID(t Test) string {
	if id, ok := registryIDs()[t.Name()]; ok {
		return id
	}
	return t.Name()
}

// TestNames lists the identifiers TestByName accepts, sorted.
func TestNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}

// TestInfos lists every registry entry with its metadata, sorted by
// name (the same order as TestNames). It backs GET /v1/tests and the
// CLI's -list-tests, so clients can discover which tests are legal
// under a given scheduler instead of hardcoding it.
func TestInfos() []TestInfo {
	infos := make([]TestInfo, len(registry))
	for i, e := range registry {
		infos[i] = TestInfo{Name: e.name, Description: e.desc, Validity: e.validity}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// TestsByName resolves a list of identifiers, skipping blank entries and
// rejecting an empty result.
func TestsByName(names []string) ([]Test, error) {
	var out []Test
	for _, n := range names {
		if strings.TrimSpace(n) == "" {
			continue
		}
		t, err := TestByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tests selected")
	}
	return out, nil
}
