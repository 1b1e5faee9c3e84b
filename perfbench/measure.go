package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow returns the process's CPU time so far (user + system, every
// thread), the clock all batch times of the benchmark are read from.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU returns the CPU time of the calling OS thread. The corpus and
// reach workloads run locked to one thread, so the CPU time of a call is
// its latency without the time the host took the virtual CPU away, which
// on a shared machine inflates wall time by a varying tenth or more.
// (getrusage's per-thread figures advance in scheduler ticks, so this
// reads the nanosecond thread clock instead.)
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// stopwatch accumulates process CPU time over the intervals between
// start and stop, so correctness checks run between items stay out of the
// measured total.
type stopwatch struct {
	total time.Duration
	since time.Duration
	on    bool
}

func (s *stopwatch) start() {
	if !s.on {
		s.since, s.on = cpuNow(), true
	}
}

func (s *stopwatch) stop() {
	if s.on {
		s.total += cpuNow() - s.since
		s.on = false
	}
}

func (s *stopwatch) seconds() float64 {
	s.stop()
	return s.total.Seconds()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is one latency quantile with the sample count behind it.
type percentile struct {
	value   float64
	samples int
	beyond  int // samples strictly above the quantile's rank
}

// quantile returns the nearest-rank q-quantile of xs (xs is sorted in
// place). beyond counts the samples ranked above it: a p99 with fewer than
// ten of those is just the run's slowest few requests.
func quantile(xs []float64, q float64) percentile {
	p := percentile{samples: len(xs)}
	if len(xs) == 0 {
		return p
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	p.value = xs[rank-1]
	p.beyond = len(xs) - rank
	return p
}

// minBeyondP99 is the percentile guard: a p99 needs at least this many
// samples above it.
const minBeyondP99 = 10

// median returns the median of xs (0 for none), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gmean returns the geometric mean of positive xs (0 for none).
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered metric set: the JSON result is a map, but the
// human-readable lines keep the order metrics were added in.
type metrics struct {
	order []string
	byKey map[string]metric
}

func newMetrics() *metrics { return &metrics{byKey: make(map[string]metric)} }

func (ms *metrics) set(name, unit string, v float64) {
	if _, ok := ms.byKey[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.byKey[name] = metric{Value: v, Unit: unit}
}
