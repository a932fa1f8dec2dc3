package main

import (
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"fairgossip/internal/stats"
)

// cpuNow returns the process's CPU time so far (user + system).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// Runtime counters read through runtime/metrics: unlike ReadMemStats
// none of these stops the world, so sampling them at block boundaries
// costs the measured system nothing.
const (
	rmAllocs     = "/gc/heap/allocs:objects"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmHeapLive   = "/gc/heap/live:bytes"
	rmSchedLat   = "/sched/latencies:seconds"
	rmGoroutines = "/sched/goroutines:goroutines"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func mallocsNow() uint64 { return readUint(rmAllocs) }

// schedHist snapshots the scheduler's run-queue latency histogram.
func schedHist() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: rmSchedLat}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h := s[0].Value.Float64Histogram()
	return &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
}

// schedP99 returns the 99th percentile (seconds) of the run-queue waits
// recorded between two snapshots, as the upper edge of its bucket.
func schedP99(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i := range after.Counts {
		cum += after.Counts[i] - before.Counts[i]
		if cum >= want {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// median is the block statistic of every time-based metric.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
