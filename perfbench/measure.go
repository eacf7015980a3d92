package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
)

// loop is one closed-loop phase: every client submits its next job only
// after the previous one returned and was checked.
type loop struct {
	runs   []jobRun
	wall   time.Duration
	cpu    time.Duration // process user+sys CPU
	alloc  uint64        // bytes allocated (runtime.MemStats.TotalAlloc)
	before counters
	after  counters
}

// runLoop runs clients closed-loop clients against the rig until d has
// passed; jobs started before then run to completion, and every client
// runs at least one job.
func runLoop(r *rig, clients int, d time.Duration) loop {
	var l loop
	var mu sync.Mutex
	var wg sync.WaitGroup
	l.before = readCounters(r)
	cpu0, alloc0 := cpuTime(), totalAlloc()
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Since(start) < d; first = false {
				run := r.runJob()
				mu.Lock()
				l.runs = append(l.runs, run)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.wall = time.Since(start)
	l.cpu = cpuTime() - cpu0
	l.alloc = totalAlloc() - alloc0
	l.after = readCounters(r)
	return l
}

// ok counts the jobs that completed with correct output.
func (l loop) ok() int {
	n := 0
	for _, run := range l.runs {
		if run.err == nil {
			n++
		}
	}
	return n
}

// walls returns the client-observed times of the successful jobs.
func walls(runs []jobRun) []float64 {
	var out []float64
	for _, run := range runs {
		if run.err == nil {
			out = append(out, run.wall.Seconds())
		}
	}
	return out
}

// counters is a point-in-time read of every counter source the layer
// metrics use.
type counters struct {
	cluster                   metrics.Snapshot
	granted, waited, rejected int64
}

func readCounters(r *rig) counters {
	c := counters{cluster: r.c.Metrics().Snapshot()}
	c.granted, c.waited, _ = r.c.Yarn().Stats()
	if !r.w.isMR() {
		c.rejected = r.c.Jobs().Stats().Rejected
	}
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's high-water resident set size in bytes (the
// VmHWM figure; Linux reports ru_maxrss in KiB).
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile of xs that has at least ten
// samples beyond it — the eleventh-largest sample — and that percentile.
// With fewer than 21 samples no percentile at or above the median
// qualifies, and the median is returned.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 21 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-11) / float64(n-1)
}
