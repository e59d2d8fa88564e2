package a

// Used is called by the program.
func Used() {}

// Unused is called by nothing.
func Unused() {}

// Recursive is called only by itself.
func Recursive(n int) {
	if n > 0 {
		Recursive(n - 1)
	}
}
