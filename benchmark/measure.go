package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const mib = 1 << 20

// window is one closed-loop measurement: every client runs its next op as
// soon as its previous one has been verified, until the time is up.
type window struct {
	ops       []opRecord // the verified ops, in order of completion
	attempted int
	failed    int
	firstErr  error
	wall      float64 // seconds from the first op's start to the last op's end
	cpu       float64 // process user+sys seconds over the window
	alloc     float64 // bytes allocated over the window
	gcCycles  float64
}

// opRecord is one verified op: its wall time, and the window's clock and
// the process's CPU seconds when it completed.
type opRecord struct{ wall, end, cpu float64 }

func (win *window) ok() int { return len(win.ops) }

func (win *window) walls() []float64 {
	ws := make([]float64, len(win.ops))
	for k, op := range win.ops {
		ws[k] = op.wall
	}
	return ws
}

// opFunc runs op i and verifies it, returning the op's wall time without
// the verification.
type opFunc func(i uint64) (time.Duration, error)

// measure runs do from the workload's clients for at least the given
// seconds and at least minOps ops, starting at op index first.
func measure(clients int, first uint64, seconds float64, minOps int, do opFunc) *window {
	win := &window{}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Uint64
		ms0  runtime.MemStats
		ms1  runtime.MemStats
	)
	next.Store(first)
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if time.Now().After(deadline) && i >= first+uint64(minOps) {
					return
				}
				d, err := do(i)
				mu.Lock()
				win.attempted++
				if err != nil {
					win.failed++
					if win.firstErr == nil {
						win.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				} else {
					win.ops = append(win.ops, opRecord{d.Seconds(), time.Since(start).Seconds(), cpuSeconds() - cpu0})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.wall = time.Since(start).Seconds()
	win.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	win.alloc = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	win.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	return win
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-RSS watermark at the current RSS,
// so that peakRSSMiB reports the ops and not the set-up's oracle run. Where
// /proc/self/clear_refs is not writable the watermark simply keeps the
// set-up peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM; 0 where /proc is not available.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs need not be sorted and is left untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quietParts is the number of equal parts (by op count, in order of
// completion) a window is cut into: ops_per_s and cpu_s_per_op are those of
// the best part, as wall_s_min is that of the best op. The machines this runs
// on slow every op of a compute-bound workload by up to 1.35x, and at times
// 1.75x, for seconds to minutes at a time (README.md): medians and
// whole-window totals then differ by up to 25 % between identical runs, while
// the machine at its quietest during a run repeats several times better.
const quietParts = 10

// bestPart returns the highest throughput and the lowest CPU time per op
// among the window's parts.
func (win *window) bestPart() (opsPerSecond, cpuPerOp float64) {
	parts := min(quietParts, len(win.ops))
	if parts == 0 {
		return 0, 0
	}
	size := len(win.ops) / parts
	var from opRecord // the window starts at clock 0 with no CPU used
	for p := 0; p < parts; p++ {
		to := win.ops[(p+1)*size-1]
		rate, cpu := float64(size)/(to.end-from.end), (to.cpu-from.cpu)/float64(size)
		if p == 0 || rate > opsPerSecond {
			opsPerSecond = rate
		}
		if p == 0 || cpu < cpuPerOp {
			cpuPerOp = cpu
		}
		from = to
	}
	return opsPerSecond, cpuPerOp
}

// endToEnd derives the five end-to-end metrics from an untraced window.
func endToEnd(win *window, setupSeconds float64) map[string]metric {
	opsPerSecond, cpuPerOp := win.bestPart()
	return map[string]metric{
		"wall_s_min":       {quantile(win.walls(), 0), "s"},
		"ops_per_s":        {opsPerSecond, "1/s"},
		"cpu_s_per_op":     {cpuPerOp, "s"},
		"alloc_mib_per_op": {win.alloc / float64(max(win.ok(), 1)) / mib, "MiB"},
		"setup_s":          {setupSeconds, "s"},
	}
}
