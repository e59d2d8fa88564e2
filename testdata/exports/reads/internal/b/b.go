package b

import "fix/internal/a"

// Other reads a.T.Other.
func Other() int { return a.New().Other }
