package task

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenWriteJSON freezes the task-file format WriteJSON produces
// (two-space indent, trailing newline, encoding/json escaping). The
// fixture mixes the paper's Table 3 pair with names that need every
// escaping rule, plus the empty set. Regenerate deliberately with:
//
//	go test ./internal/task -run GoldenWriteJSON -update
func TestGoldenWriteJSON(t *testing.T) {
	cases := map[string]*Set{
		"writejson": NewSet(
			New("t1", "2.10", "5", "5", 7),
			New("t2", "2.00", "7", "7", 7),
			New(`q"b\s/<a>&b`, "1", "4", "4", 1),
			New("ctl\x00\x01\b\f\n\r\t\x1f\x7f", "0.5", "3", "6", 2),
			New("héllo 日本 \u2028\u2029 \xff", "1.2345", "10", "10", 3),
			New("", "2", "9", "8", 4),
		),
		"writejson_empty": NewSet(),
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := s.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("WriteJSON bytes drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
			}
		})
	}
}
