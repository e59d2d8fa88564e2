package a

// Kept has no program caller; a test keeps it.
func Kept() {}

// Called has a program caller.
func Called() {}

// Counter counts.
type Counter struct{ n int }

// Read returns the count.
func (c *Counter) Read() int { return c.n }

// Bump adds one to the count.
func (c *Counter) Bump() { c.n++ }
