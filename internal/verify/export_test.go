package verify

// setPoolSize makes Run replay n segments at once until restore is called.
func setPoolSize(n int) (restore func()) {
	prev := poolSize
	poolSize = func() int { return n }
	return func() { poolSize = prev }
}
