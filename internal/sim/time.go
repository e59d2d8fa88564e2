// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel maintains a virtual clock and an event queue. Simulated
// processes are coroutines, and exactly one of them runs at a time: a
// process holds the run token until it blocks on a simulation
// primitive (Sleep, Queue, Semaphore, ...), then dispatches the next
// events itself until one resumes a process, and hands the token to
// that process through the goroutine that runs the kernel. Events that
// fire at the same virtual instant are ordered by their scheduling
// sequence number, so a simulation is fully deterministic and
// repeatable.
//
// All of HPC/VORX — the interconnect, the node kernels, the protocols —
// runs on this kernel, which is how microsecond-scale 1988 latencies
// are reproduced exactly on modern hardware.
package sim

import "fmt"

// Time is an instant in virtual time, measured in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Microseconds returns a Duration of us microseconds. Fractional
// microseconds are preserved at nanosecond resolution.
func Microseconds(us float64) Duration {
	return Duration(us * float64(Microsecond))
}

// Milliseconds returns a Duration of ms milliseconds.
func Milliseconds(ms float64) Duration {
	return Duration(ms * float64(Millisecond))
}

// Seconds returns a Duration of s seconds.
func Seconds(s float64) Duration {
	return Duration(s * float64(Second))
}

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds reports t as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds reports d as a float64 number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds reports d as a float64 number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (t Time) String() string {
	return fmt.Sprintf("t=%.3fµs", t.Microseconds())
}

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	}
}
