package sim

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Nanosecond is one nanosecond.
const Nanosecond Duration = 1
