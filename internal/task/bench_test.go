package task_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"testing"

	"fpgasched/api"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// benchSets is the analyze-cold input shape at one size: Figure-3
// Unconstrained sets of n tasks rescaled to a mid-axis target US, 16 of
// them so an iteration does not keep hitting one set's cache lines.
func benchSets(n int) []*task.Set {
	sets := make([]*task.Set, 16)
	for i := range sets {
		sets[i], _ = workload.Unconstrained(n).GenerateWithTargetUS(workload.Rand(uint64(i)+1), 50)
	}
	return sets
}

func analyzeRequest(s *task.Set) api.AnalyzeRequest {
	return api.AnalyzeRequest{Columns: workload.FigureDeviceColumns, Tests: []string{"DP", "GN1", "GN2"}, Taskset: s}
}

// BenchmarkSetMarshal is the client's request encode: json.Marshal of an
// analyze request carrying the set.
func BenchmarkSetMarshal(b *testing.B) {
	for _, n := range []int{10, 25, 50} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sets := benchSets(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(analyzeRequest(sets[i%len(sets)])); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetUnmarshal is the server's strict request decode: a
// json.Decoder with unknown fields disallowed, as fpgaschedd reads an
// analyze body.
func BenchmarkSetUnmarshal(b *testing.B) {
	for _, n := range []int{10, 25, 50} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var bodies [][]byte
			for _, s := range benchSets(n) {
				body, err := json.Marshal(analyzeRequest(s))
				if err != nil {
					b.Fatal(err)
				}
				bodies = append(bodies, body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var req api.AnalyzeRequest
				dec := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var usSink *big.Rat

// BenchmarkUtilizationS is the exact total system utilization, computed
// on every resident read and by the workload generator's rescaling.
func BenchmarkUtilizationS(b *testing.B) {
	for _, n := range []int{10, 25, 50} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sets := benchSets(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				usSink = sets[i%len(sets)].UtilizationS()
			}
		})
	}
}
