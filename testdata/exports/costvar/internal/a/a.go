package a

import "fix/internal/sim"

// Cost is a variable: the scan reports it.
var Cost = 5 * sim.Nanosecond

// Fixed is a constant.
const Fixed = 3 * sim.Nanosecond

// count is not a sim.Duration.
var count int

// Total adds the costs and counts the call.
func Total() sim.Duration {
	count++
	return Cost + Fixed + sim.Duration(count)
}
