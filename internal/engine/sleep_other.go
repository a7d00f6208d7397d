//go:build !linux

package engine

import "time"

// sleepThread falls back to the runtime timer where the platform has no
// nanosleep syscall.
func sleepThread(d time.Duration) { time.Sleep(d) }
