package main

import (
	"math"
	stdruntime "runtime"
	"sort"
	"syscall"
	"time"
)

// clockBase anchors the harness's monotonic nanosecond clock: every span,
// probe stamp and due time is nanos() on this one base.
var clockBase = time.Now()

// nanos reads the monotonic clock (one runtime.nanotime call, no wall read).
func nanos() int64 { return int64(time.Since(clockBase)) }

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs; 0 for
// an empty slice. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// cpuTime returns the process's user+system CPU time (RUSAGE_SELF).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounts returns the cumulative heap allocation counts: objects, bytes.
func allocCounts() (mallocs, bytes uint64) {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// heapAfterGC forces a collection and returns the live heap in bytes.
func heapAfterGC() uint64 {
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// meter brackets one timed section: wall, CPU and allocation deltas.
type meter struct {
	wall0           int64
	cpu0            time.Duration
	malloc0, bytes0 uint64
}

func startMeter() meter {
	m := meter{}
	m.malloc0, m.bytes0 = allocCounts()
	m.cpu0, m.wall0 = cpuTime(), nanos()
	return m
}

// usage is what a timed section cost.
type usage struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64 // heap objects allocated
	bytes   uint64 // heap bytes allocated
}

func (m meter) stop() usage {
	u := usage{wall: time.Duration(nanos() - m.wall0), cpu: cpuTime() - m.cpu0}
	mallocs, bytes := allocCounts()
	u.mallocs, u.bytes = mallocs-m.malloc0, bytes-m.bytes0
	return u
}

func (u usage) nsPer(n int) float64     { return float64(u.wall) / float64(n) }
func (u usage) allocsPer(n int) float64 { return float64(u.mallocs) / float64(n) }
func (u usage) cpuNsPer(n int) float64  { return float64(u.cpu) / float64(n) }
