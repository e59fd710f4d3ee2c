package core_test

import (
	"testing"

	"fpgasched/internal/core"
)

// TestTestIDRoundTrips pins that every registry test's identifier
// resolves back to a test with the same Name(), the engine's cache key —
// including the composites, whose Name() is not an identifier.
func TestTestIDRoundTrips(t *testing.T) {
	for _, name := range core.TestNames() {
		tt, err := core.TestByName(name)
		if err != nil {
			t.Fatal(err)
		}
		id := core.TestID(tt)
		if id != name {
			t.Errorf("TestID(%s) = %q, want %q", tt.Name(), id, name)
		}
		back, err := core.TestByName(id)
		if err != nil || back.Name() != tt.Name() {
			t.Errorf("TestByName(%q) = %v, %v; want a test named %q", id, back, err, tt.Name())
		}
	}
}
