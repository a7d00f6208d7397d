//go:build race

package qos

// raceBuild: under the race detector sync.Pool drops a quarter of what it
// is given, so the free list of wait sketches does not hold its
// allocation budget.
const raceBuild = true
