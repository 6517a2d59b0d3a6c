package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs, or the mean of the two middle
// values when their number is even (0 for none). Unlike the
// nearest-rank quantile(xs, 0.5), it does not lean low when a run holds
// an even number of samples: paper-quick runs make five or six passes,
// and the low leaning alone widened its cpu_ms_per_op spread over ten
// runs from 0.084 to 0.101.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a phase too short to hold any).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overhead is the tracing overhead: the traced median over the
// untraced one, less one.
func overhead(traced, untraced []float64) float64 {
	if r := ratio(median(traced), median(untraced)); r != 0 {
		return r - 1
	}
	return 0
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// memPeak tracks the peak memory the Go runtime holds from the
// operating system (mapped and not released), sampled every 2 ms, so a
// workload can report the peak of each of its repeated parts.
type memPeak struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			held := s[0].Value.Uint64() - s[1].Value.Uint64()
			m.mu.Lock()
			m.peak = max(m.peak, held)
			m.mu.Unlock()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// take returns the peak since the last take, in MB, and starts a new
// one.
func (m *memPeak) take() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peak
	m.peak = 0
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for it.
func (m *memPeak) close() {
	close(m.stop)
	<-m.done
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the CPU time the process has used so far, user and
// system, summed over its threads. A kernel with paravirtual steal
// accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING, as on KVM and
// Firecracker guests) leaves out the time the hypervisor stole, and no
// thread is charged for time it spends waiting for a CPU or for an idle
// CPU to wake. So unlike wall time it does not move with how much of a
// shared host the VM gets.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the host's CPU time counters from /proc/stat: the
// ticks the hypervisor stole and the total of all ticks. Both are 0
// where the file is missing.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal guest
		// guest_nice: guest time is already counted in user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealFrac is the share of host CPU time stolen since an earlier
// cpuTicks reading.
func stealFrac(steal0, total0 uint64) float64 {
	steal, total := cpuTicks()
	return ratio(float64(steal-steal0), float64(total-total0))
}

// totalAllocMB is the heap bytes allocated since the process started,
// in MB.
func totalAllocMB() float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.TotalAlloc) / (1 << 20)
}

// layerUnit derives a per-layer metric's unit from the unit word in its
// name (_ms, _us, _ns, _mb, _bytes; _frac and _eff are ratios); any
// other metric is a count.
func layerUnit(name string) string {
	for _, u := range []struct{ word, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"}, {"_mb", "MB"}, {"_bytes", "bytes"},
		{"_frac", "1"}, {"_eff", "1"},
	} {
		if strings.Contains(name, u.word) {
			return u.unit
		}
	}
	return "count"
}
