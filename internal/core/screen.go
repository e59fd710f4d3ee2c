package core

import (
	"context"
	"sync/atomic"
)

// The interval screen (DESIGN.md §6) is a certified float64 pre-filter
// in front of the exact kernels: each bound is first evaluated on
// directed-rounding intervals (internal/interval), and only bounds
// whose interval straddles the comparison escalate to internal/rat.
// The screen is verdict-invariant by construction — a strictly decided
// interval comparison is certified to agree with exact arithmetic, and
// every value that reaches a certificate is re-derived exactly — so it
// is a fixed property of each kernel, not an option: GN2 and DP always
// screen, GN1 never does (its certificate needs every exact sum anyway,
// so the screen could only replace one cheap comparison per task).

// screenStatsKey carries the optional counter sink.
type screenStatsKey struct{}

// ScreenStats counts what the interval screen did during one or more
// analyses: Decided is the number of bounds (GN2: λ candidates; DP:
// per-task inequalities) the screen disposed of with no exact
// arithmetic, Escalated the number that required the exact kernel —
// because the interval straddled the comparison, or because the bound
// decides a verdict or certificate and is therefore always re-verified
// exactly. The fields are atomics so parallel sweep workers can share
// one sink; kernels accumulate locally and flush once per task.
type ScreenStats struct {
	Decided   atomic.Uint64
	Escalated atomic.Uint64
}

// add flushes a local (decided, escalated) tally; nil-safe so kernels
// can call it unconditionally.
func (s *ScreenStats) add(decided, escalated uint64) {
	if s == nil || (decided == 0 && escalated == 0) {
		return
	}
	s.Decided.Add(decided)
	s.Escalated.Add(escalated)
}

// WithScreenStats returns a context that directs the kernels' screen
// counters into s (the engine attaches one per analysis and surfaces
// the totals in its Stats and on /metrics). A nil s is allowed and
// equivalent to no sink.
func WithScreenStats(ctx context.Context, s *ScreenStats) context.Context {
	return context.WithValue(ctx, screenStatsKey{}, s)
}

// screenStatsFrom extracts the counter sink from ctx, or nil.
func screenStatsFrom(ctx context.Context) *ScreenStats {
	s, _ := ctx.Value(screenStatsKey{}).(*ScreenStats)
	return s
}
