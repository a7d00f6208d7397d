package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-th quantile of vals (q in [0,1]) by linear
// interpolation between order statistics, so the result moves
// continuously with the data instead of snapping to a sample. vals is
// not modified. Empty input yields 0.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// mean returns the arithmetic mean of vals, 0 when empty.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// quiet summarises one-second window readings of a quantity that
// outside interference can only worsen, by the best window: the lowest
// reading for lower-is-better, the highest for higher-is-better. The
// host this benchmark runs on is shared; its speed moves by ±15% in
// phases that last seconds and it stalls for tens of milliseconds at a
// time, so a run's median window flips between a fast and a slow mode
// from run to run. The best window reads the undisturbed machine as long
// as one window in the run was quiet, and a real change in the code
// moves the best window as much as any other.
func quiet(vals []float64, better string) float64 {
	if better == "higher" {
		return quantile(vals, 1)
	}
	return quantile(vals, 0)
}

// relSpread is the interquartile range of vals as a share of their
// median, with the quartiles Python's statistics.quantiles(n=4) yields
// (exclusive method), which is what the driver computes.
func relSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timeOp times fn, which performs n operations, reps times and returns
// the median nanoseconds per operation.
func timeOp(reps, n int, fn func()) float64 {
	per := make([]float64, reps)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// allocsOf returns the heap allocations one call of fn makes, averaged
// over runs calls (after one warm-up call).
func allocsOf(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
