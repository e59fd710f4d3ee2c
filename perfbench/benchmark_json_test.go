package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BENCHMARK.json names the metrics of the result line; the benchmark
// fails a run that does not measure one, so the two lists must agree.
func TestBenchmarkJSONNamesTheResultMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name string }
		code []string
	}{{"end_to_end", b.EndToEnd, endToEndNames}, {"per_layer", b.PerLayer, perLayerNames}} {
		var names []string
		for _, m := range c.json {
			names = append(names, m.Name)
		}
		if !slices.Equal(names, c.code) {
			t.Errorf("%s: BENCHMARK.json lists %v, the result line carries %v", c.kind, names, c.code)
		}
	}
}
