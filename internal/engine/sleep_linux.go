package engine

import (
	"syscall"
	"time"
)

// sleepThread blocks the calling OS thread for d with a timed syscall,
// which the kernel ends to within its timer slack (≈ 50 µs). The Go
// runtime hands the thread's P to other goroutines while it sleeps.
func sleepThread(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// A signal ends the sleep early (EINTR); the caller's loop finds its
	// wait not over and sleeps again.
	_ = syscall.Nanosleep(&ts, nil)
}
