package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// stream renders a workload's generated requests as bytes: everything
// the benchmark sends, in send order.
func stream(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	e := &env{}
	switch name {
	case "analyze-cold":
		e.sets, e.columns = coldSets(seed, 60, 2), 100
		for i := range e.sets {
			e.ops = append(e.ops, op{kind: opAnalyze, ref: int32(i)})
		}
	case "analyze-warm":
		e.sets, e.columns, e.permuted = warmPool(seed), 10, true
		e.ops = warmStreamOps(seed, e.sets, 500)
	case "admit-churn":
		var ms []*mirror
		var err error
		if e.tenants, ms, err = churnTenants(seed); err != nil {
			t.Fatal(err)
		}
		e.ops, e.tasks = churnOps(seed, ms, 500)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, tn := range e.tenants {
		fmt.Fprintln(&buf, tn.name, tn.large)
		if err := enc.Encode(tn.initial); err != nil {
			t.Fatal(err)
		}
	}
	for i := range e.ops {
		o := &e.ops[i]
		fmt.Fprintln(&buf, o.kind, o.ref)
		var err error
		switch o.kind {
		case opAnalyze:
			err = enc.Encode(e.analyzeRequest(o))
		case opAdmit, opRelease:
			err = enc.Encode(e.tasks[o.task])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSeedGivesIdenticalStream(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(t, w.name, 7), stream(t, w.name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if bytes.Equal(a, stream(t, w.name, 8)) {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", w.name)
		}
	}
}

// Cold sets depend on (seed, index) only, not on how many goroutines
// generate them.
func TestColdSetsIndependentOfWorkers(t *testing.T) {
	a, err := json.Marshal(coldSets(3, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(coldSets(3, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("cold sets depend on the number of generator goroutines")
	}
}
