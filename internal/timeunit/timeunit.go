// Package timeunit provides the exact fixed-point time representation used
// throughout the library.
//
// The paper's task parameters are small decimals (e.g. C1 = 1.26, T1 = 7).
// Floating point would make the knife-edge tasksets of the evaluation
// (Table 1 is constructed so that the DP bound holds with exact equality)
// non-deterministic, so all times are int64 counts of a fixed tick,
// with TicksPerUnit ticks per paper time unit. Conversions to exact
// rationals (math/big.Rat) are provided for the schedulability tests, and
// the discrete-event simulator operates on ticks directly, so every
// release, completion and deadline instant is exactly representable.
package timeunit

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
)

// Time is a duration or instant measured in ticks.
//
// One paper time unit is TicksPerUnit ticks, so the representable
// resolution is 10^-4 time units — two orders of magnitude finer than the
// two-decimal parameters used in the paper's evaluation section.
type Time int64

// TicksPerUnit is the number of ticks in one paper time unit.
const TicksPerUnit = 10_000

// decimalDigits is the number of fractional decimal digits representable,
// i.e. log10(TicksPerUnit).
const decimalDigits = 4

// MaxTime is the largest representable Time. It doubles as the saturation
// value for overflowing operations such as hyperperiod computation.
const MaxTime = Time(math.MaxInt64)

// Common errors returned by Parse.
var (
	ErrSyntax   = errors.New("timeunit: invalid decimal syntax")
	ErrRange    = errors.New("timeunit: value out of range")
	ErrTooFine  = errors.New("timeunit: more fractional digits than the tick resolution")
	ErrNegative = errors.New("timeunit: negative value where non-negative required")
)

// FromUnits converts a whole number of time units to ticks.
func FromUnits(u int64) Time {
	return Time(u) * TicksPerUnit
}

// FromFloat converts a floating-point number of time units to ticks,
// rounding to the nearest tick (half away from zero). It is intended for
// quantising random draws in workload generators; exact inputs should use
// Parse or FromUnits.
func FromFloat(f float64) Time {
	scaled := f * TicksPerUnit
	if scaled >= 0 {
		return Time(scaled + 0.5)
	}
	return Time(scaled - 0.5)
}

// Float returns the value in time units as a float64. For reporting only;
// analysis code must use Rat.
func (t Time) Float() float64 {
	return float64(t) / TicksPerUnit
}

// Rat returns the exact value in time units as a big.Rat.
func (t Time) Rat() *big.Rat {
	return big.NewRat(int64(t), TicksPerUnit)
}

// Ticks returns the raw tick count.
func (t Time) Ticks() int64 { return int64(t) }

// IsPositive reports whether t is strictly positive.
func (t Time) IsPositive() bool { return t > 0 }

// Units returns the whole-unit part of t, truncating toward zero.
func (t Time) Units() int64 { return int64(t) / TicksPerUnit }

// String formats t as a decimal number of time units with trailing zeros
// trimmed, e.g. Time(12600) -> "1.26".
func (t Time) String() string {
	var buf [24]byte
	return string(t.AppendText(buf[:0]))
}

// AppendText appends the String form of t to b and returns the
// extended buffer. It is the allocation-free primitive the wire
// encoders build on.
func (t Time) AppendText(b []byte) []byte {
	v := uint64(t)
	if t < 0 {
		b = append(b, '-')
		v = -v // two's complement: exact for MinInt64 too
	}
	b = strconv.AppendUint(b, v/TicksPerUnit, 10)
	frac := v % TicksPerUnit
	if frac == 0 {
		return b
	}
	var digits [decimalDigits]byte
	for i := decimalDigits - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := decimalDigits
	for digits[n-1] == '0' {
		n--
	}
	b = append(b, '.')
	return append(b, digits[:n]...)
}

// Parse converts a decimal string such as "1.26" or "-0.5" to ticks.
// It fails if the value has more fractional digits than the tick
// resolution or does not fit in int64.
func Parse(s string) (Time, error) {
	orig := s
	if s == "" {
		return 0, fmt.Errorf("%w: empty string", ErrSyntax)
	}
	neg := false
	switch s[0] {
	case '+':
		s = s[1:]
	case '-':
		neg = true
		s = s[1:]
	}
	if s == "" || s == "." {
		return 0, fmt.Errorf("%w: %q", ErrSyntax, orig)
	}
	wholeStr, fracStr := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		wholeStr, fracStr = s[:i], s[i+1:]
	}
	if len(fracStr) > decimalDigits {
		// Permit redundant trailing zeros beyond the resolution.
		extra := fracStr[decimalDigits:]
		if strings.Trim(extra, "0") != "" {
			return 0, fmt.Errorf("%w: %q", ErrTooFine, orig)
		}
		fracStr = fracStr[:decimalDigits]
	}
	var whole int64
	if wholeStr != "" {
		for _, c := range wholeStr {
			if c < '0' || c > '9' {
				return 0, fmt.Errorf("%w: %q", ErrSyntax, orig)
			}
			d := int64(c - '0')
			if whole > (math.MaxInt64-d)/10 {
				return 0, fmt.Errorf("%w: %q", ErrRange, orig)
			}
			whole = whole*10 + d
		}
	}
	var frac int64
	mult := int64(TicksPerUnit / 10)
	for _, c := range fracStr {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("%w: %q", ErrSyntax, orig)
		}
		frac += int64(c-'0') * mult
		mult /= 10
	}
	if whole > (math.MaxInt64-frac)/TicksPerUnit {
		return 0, fmt.Errorf("%w: %q", ErrRange, orig)
	}
	v := whole*TicksPerUnit + frac
	if neg {
		v = -v
	}
	return Time(v), nil
}

// MustParse is Parse but panics on error; for package-level fixtures.
func MustParse(s string) Time {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

// GCD returns the greatest common divisor of a and b, treating negative
// values by absolute value. GCD(0, 0) is 0.
func GCD(a, b Time) Time {
	x, y := abs64(int64(a)), abs64(int64(b))
	for y != 0 {
		x, y = y, x%y
	}
	return Time(x)
}

// LCM returns the least common multiple of a and b, saturating at MaxTime
// on overflow. LCM with either argument zero is 0.
func LCM(a, b Time) Time {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	x := abs64(int64(a)) / int64(g)
	y := abs64(int64(b))
	if x != 0 && y > math.MaxInt64/x {
		return MaxTime
	}
	return Time(x * y)
}

// LCMAll folds LCM over ts, saturating at MaxTime.
func LCMAll(ts []Time) Time {
	if len(ts) == 0 {
		return 0
	}
	acc := ts[0]
	for _, t := range ts[1:] {
		acc = LCM(acc, t)
		if acc == MaxTime {
			return MaxTime
		}
	}
	return acc
}

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
