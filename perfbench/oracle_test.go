package main

import (
	"testing"

	"fpgasched/api"
	"fpgasched/internal/admission"
	"fpgasched/internal/workload"
)

// table3Certs returns the reference certificates for the paper's Table
// 3 set, which GN2 accepts with a witnessing λ.
func table3Certs(t *testing.T) []api.Verdict {
	t.Helper()
	want, err := referenceCerts(workload.Table3(), workload.TableDeviceColumns, analyzeTests, true, newVerification())
	if err != nil {
		t.Fatal(err)
	}
	if !want[2].Schedulable || len(want[2].Checks) == 0 || want[2].Checks[0].Lambda == "" {
		t.Fatalf("Table 3 GN2 reference: %+v", want[2])
	}
	return want
}

func clone(vs []api.Verdict) []api.Verdict {
	out := make([]api.Verdict, len(vs))
	for i, v := range vs {
		v.Checks = append([]api.Check(nil), v.Checks...)
		out[i] = v
	}
	return out
}

func TestOracleRejectsPerturbedCertificate(t *testing.T) {
	want := table3Certs(t)
	ref := digestResult(referenceResult(want))
	served := func(vs []api.Verdict) uint64 {
		return digestResult(&api.AnalyzeResult{Schedulable: true, Verdicts: vs})
	}
	if served(clone(want)) != ref {
		t.Fatal("identical result rejected")
	}
	perturb := map[string]func(c *api.Check){
		"lambda":     func(c *api.Check) { c.Lambda = "1/7" },
		"sum":        func(c *api.Check) { c.LHS += "1" },
		"task index": func(c *api.Check) { c.TaskIndex = 1 - c.TaskIndex },
	}
	for name, f := range perturb {
		got := clone(want)
		f(&got[2].Checks[0])
		if served(got) == ref {
			t.Errorf("oracle accepted a certificate with a perturbed %s", name)
		}
	}
	got := clone(want)
	got[2].Reason = "worded differently"
	if served(got) != ref {
		t.Error("oracle compares the free-text reason")
	}
	if digestResult(&api.AnalyzeResult{Schedulable: false, Verdicts: clone(want)}) == ref {
		t.Error("oracle accepted a wrong schedulable summary")
	}
	if digestResult(nil) == ref {
		t.Error("oracle accepted a missing result")
	}
}

func TestOracleRejectsPerturbedAdmission(t *testing.T) {
	want := table3Certs(t)[2]
	decision := admission.Decision{Admitted: true, ProvedBy: "GN2", Certificate: &want}
	served := func() *api.AdmitResponse {
		c := clone([]api.Verdict{want})[0]
		return &api.AdmitResponse{Admitted: true, ProvedBy: "GN2", Certificate: &c}
	}
	if d := admitDiff(served(), decision); d != "" {
		t.Fatalf("identical admission rejected: %s", d)
	}
	bad := served()
	bad.Certificate.Checks[1].RHS = "0"
	if admitDiff(bad, decision) == "" {
		t.Error("oracle accepted an admission certificate with a perturbed bound")
	}
	bad = served()
	bad.Admitted, bad.Certificate = false, nil
	if admitDiff(bad, decision) == "" {
		t.Error("oracle accepted a wrong rejection")
	}
}
