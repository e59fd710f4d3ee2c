package api

// Compact wire goldens: the exact bytes json.Marshal produces for an
// analyze request, which is what the client SDK puts on the wire. The
// indented goldens in golden_test.go go through json.Indent, which
// would hide whitespace and escaping drift in the task-set encoder;
// these pin the encoder's own output. Regenerate deliberately with:
//
//	go test ./api -run CompactWire -update

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fpgasched/internal/task"
)

// escapedNameSet has names that exercise every escaping rule of
// encoding/json: quotes and backslashes, HTML-sensitive <>&, control
// characters (short and \u00XX forms), non-ASCII, U+2028/U+2029 and
// an invalid UTF-8 byte. The empty name is omitted from the wire.
func escapedNameSet() *TaskSet {
	return task.NewSet(
		task.New(`q"b\s/<a>&b`, "1", "4", "4", 1),
		task.New("ctl\x00\x01\b\f\n\r\t\x1f\x7f", "0.5", "3", "6", 2),
		task.New("héllo 日本 \u2028\u2029 \xff", "1.2345", "10", "10", 3),
		task.New("", "2", "9", "8", 4),
	)
}

func compactWireFixtures() map[string]AnalyzeRequest {
	return map[string]AnalyzeRequest{
		"wire_analyze_table3": {
			Columns: 10,
			Tests:   []string{"DP", "GN1", "GN2"},
			Taskset: fixtureSet(),
		},
		"wire_analyze_escaped_names": {
			Columns: 10,
			Tests:   []string{"GN2"},
			Taskset: escapedNameSet(),
		},
		"wire_analyze_empty": {
			Columns: 10,
			Tests:   []string{"GN2"},
			Taskset: task.NewSet(),
		},
	}
}

func TestGoldenCompactWire(t *testing.T) {
	for name, req := range compactWireFixtures() {
		t.Run(name, func(t *testing.T) {
			got, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with go test ./api -run CompactWire -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("compact wire bytes drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
