package a

// ByOther is called from another package.
func ByOther() { ByOwn() }

// ByOwn is called from its own package.
func ByOwn() {}

// ByModule is called from a separate module only.
func ByModule() {}
