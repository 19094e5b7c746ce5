// Package sim provides the deterministic virtual-time foundation for the
// FlatFlash simulator: a nanosecond clock, contended resources that serialize
// grants the way a shared device or lock does, and a reproducible RNG.
//
// Everything in the FlatFlash repository measures latency on this virtual
// clock rather than wall-clock time, which makes every experiment
// deterministic, fast, and independent of the host machine.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. The zero value is the simulation epoch.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Micros returns a Duration of us microseconds. It accepts fractional
// microseconds (e.g. 4.8 for a 4.8 µs PCIe MMIO read).
func Micros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration with an adaptive unit, e.g. "4.80µs".
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.2fµs", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Clock is a monotonically advancing virtual clock. Each simulated actor
// (a worker thread in the database experiments, the single mutator in the
// memory experiments) owns a Clock; shared hardware is modeled by Resource.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at the epoch.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative durations are ignored so
// that latency arithmetic can never move time backwards.
func (c *Clock) Advance(d Duration) Time {
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// AdvanceTo moves the clock forward to t if t is in the future.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to the epoch. Only experiment harnesses use this,
// between independent runs.
func (c *Clock) Reset() { c.now = 0 }
