package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMiB reads VmHWM, the peak resident set size, of a process
// ("self" or a pid) from /proc.
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// clockTick is the unit of the /proc/<pid>/stat CPU times (USER_HZ,
// 100 on every Linux ABI).
const clockTick = 10 * time.Millisecond

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it are
	// space separated, starting with field 3 (state). utime and stime
	// are fields 14 and 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter accumulates CPU time and heap allocation around each timed
// in-process operation, so the harness's own output checks stay out of
// the per-operation process metrics.
type meter struct {
	cpu    time.Duration
	alloc  uint64
	ops    int
	sample []metrics.Sample
	pause0 uint64
	start  time.Time
	wall   time.Duration
}

func newMeter() *meter {
	m := &meter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.pause0 = ms.PauseTotalNs
	m.start = time.Now()
	return m
}

func (m *meter) allocated() uint64 {
	metrics.Read(m.sample)
	return m.sample[0].Value.Uint64()
}

// time runs fn once as one operation and returns its start and wall
// time.
func (m *meter) time(fn func()) (time.Time, time.Duration) {
	c0, a0 := selfCPU(), m.allocated()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	m.cpu += selfCPU() - c0
	m.alloc += m.allocated() - a0
	m.ops++
	return t0, d
}

// stop ends the phase.
func (m *meter) stop() { m.wall = time.Since(m.start) }

// layers reports the per-operation process metrics of the phase.
func (m *meter) layers() []metric {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pause := float64(ms.PauseTotalNs - m.pause0)
	return procMetrics(float64(m.cpu), float64(m.alloc), pause, m.ops, m.wall)
}

// procMetrics renders process totals over a phase as the proc.* layer
// metrics.
func procMetrics(cpuNS, allocBytes, pauseNS float64, ops int, wall time.Duration) []metric {
	n := float64(max(ops, 1))
	return []metric{
		{Name: "proc.cpu_ms_per_op", Value: ms(cpuNS) / n, Unit: "ms"},
		{Name: "proc.alloc_kb_per_op", Value: allocBytes / 1024 / n, Unit: "KiB"},
		{Name: "proc.gc_pause_ms_per_s", Value: ms(pauseNS) / wall.Seconds(), Unit: "ms/s"},
	}
}
