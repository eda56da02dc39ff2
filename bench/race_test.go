//go:build race

package main

// Under the race detector the 16-node smoke runs take minutes and execute
// the same harness code as the 1-node ones.
func init() { raceBuild = true }
