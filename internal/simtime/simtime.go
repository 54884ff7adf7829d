// Package simtime provides the time base used throughout the Sirius
// simulator: a picosecond-resolution integer clock.
//
// Sirius reconfigures end-to-end in nanoseconds and synchronizes clocks to
// within ±5 ps, so the native resolution of the simulator must be finer than
// a nanosecond. Signed 64-bit picoseconds cover ±106 days, far beyond any
// simulated run.
package simtime

import (
	"fmt"
	"time"
)

// Time is an absolute simulation time in picoseconds since the start of the
// run. The zero value is the start of the simulation.
type Time int64

// Duration is a length of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Nanoseconds returns the duration as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Picoseconds returns the duration as an integer number of picoseconds.
func (d Duration) Picoseconds() int64 { return int64(d) }

// Std converts a simulated duration to a time.Duration, rounding to
// nanoseconds. Useful when interfacing with the wall-clock prototype.
func (d Duration) Std() time.Duration {
	return time.Duration(int64(d)/int64(Nanosecond)) * time.Nanosecond
}

// FromStd converts a time.Duration to a simulated Duration.
func FromStd(d time.Duration) Duration {
	return Duration(d.Nanoseconds()) * Nanosecond
}

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d%Second == 0:
		return fmt.Sprintf("%ds", int64(d/Second))
	case d >= Millisecond || d <= -Millisecond:
		return fmt.Sprintf("%gms", float64(d)/float64(Millisecond))
	case d >= Microsecond || d <= -Microsecond:
		return fmt.Sprintf("%gus", float64(d)/float64(Microsecond))
	case d >= Nanosecond || d <= -Nanosecond:
		return fmt.Sprintf("%gns", float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// String formats the absolute time like a duration since run start.
func (t Time) String() string { return Duration(t).String() }

// Rate is a data rate in bits per second. It is kept as a float because
// rates are used in capacity arithmetic, not in exact clocking.
type Rate float64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1e3 * BitPerSecond
	Mbps              = 1e6 * BitPerSecond
	Gbps              = 1e9 * BitPerSecond
	Tbps              = 1e12 * BitPerSecond
)

// TimeToSend returns the time needed to serialize n bytes at rate r.
// It rounds up to the next picosecond.
func (r Rate) TimeToSend(n int) Duration {
	if r <= 0 {
		panic("simtime: non-positive rate")
	}
	ps := float64(n) * 8 * float64(Second) / float64(r)
	d := Duration(ps)
	if float64(d) < ps {
		d++
	}
	return d
}

// BytesIn returns how many whole bytes can be serialized at rate r in d.
func (r Rate) BytesIn(d Duration) int {
	if d <= 0 {
		return 0
	}
	return int(float64(r) * d.Seconds() / 8)
}

// Gbit returns the rate in gigabits per second.
func (r Rate) Gbit() float64 { return float64(r) / float64(Gbps) }
