package core

import (
	"fpgasched/internal/rat"
	"fpgasched/internal/task"
)

// SharesLastEvidence reports whether g's sweep over s evaluates the last
// valid λ candidate once for every task (gn2Sweep.shareLast).
func SharesLastEvidence(g GN2Test, s *task.Set) bool {
	return g.newSweep(s, rat.One, rat.One, nil).shareLast
}
