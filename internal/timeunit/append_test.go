package timeunit

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refString is the fmt-based formatter String used before AppendText
// existed, kept as the reference the strconv path must reproduce.
func refString(t Time) string {
	neg := t < 0
	v := int64(t)
	if neg {
		v = -v
	}
	whole := v / TicksPerUnit
	frac := v % TicksPerUnit
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, "%d", whole)
	if frac != 0 {
		s := fmt.Sprintf("%0*d", decimalDigits, frac)
		s = strings.TrimRight(s, "0")
		b.WriteByte('.')
		b.WriteString(s)
	}
	return b.String()
}

// TestAppendTextMatchesString checks AppendText against String and
// against the reference formatter over edge values, every fractional
// residue, and random ticks of every magnitude and sign.
func TestAppendTextMatchesString(t *testing.T) {
	vals := []Time{0, 1, -1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 10001,
		12600, -12600, 50, -50, 5000, 10050, MaxTime, -MaxTime, MaxTime - 1}
	for f := Time(0); f < TicksPerUnit; f++ {
		vals = append(vals, f, -f, 7*TicksPerUnit+f, -(7*TicksPerUnit + f))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := Time(rng.Int63() >> uint(rng.Intn(63)))
		if rng.Intn(2) == 0 {
			v = -v
		}
		vals = append(vals, v)
	}
	prefix := []byte("x=")
	for _, v := range vals {
		want := refString(v)
		if got := v.String(); got != want {
			t.Fatalf("Time(%d).String() = %q, want %q", int64(v), got, want)
		}
		if got := string(v.AppendText(nil)); got != want {
			t.Fatalf("Time(%d).AppendText(nil) = %q, want %q", int64(v), got, want)
		}
		if got := string(v.AppendText(prefix)); got != "x="+want {
			t.Fatalf("Time(%d).AppendText(%q) = %q, want %q", int64(v), prefix, got, "x="+want)
		}
	}
}

// TestAppendTextMinInt64 pins the one value the reference formatter
// got wrong: negating MinInt64 overflows, so it printed
// "--922337203685477.-5808". AppendText negates in uint64 and prints
// the exact decimal. Parse still rejects it as out of range, so no
// valid duration renders differently.
func TestAppendTextMinInt64(t *testing.T) {
	v := Time(math.MinInt64)
	const want = "-922337203685477.5808"
	if got := string(v.AppendText(nil)); got != want {
		t.Errorf("AppendText(MinInt64) = %q, want %q", got, want)
	}
	if got := v.String(); got != want {
		t.Errorf("String(MinInt64) = %q, want %q", got, want)
	}
	if _, err := Parse(want); err == nil {
		t.Error("Parse(MinInt64 text) should be out of range")
	}
}
