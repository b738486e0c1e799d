package main

import (
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median of xs (the mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the q-quantile of xs by the nearest-rank method: the
// smallest sample with at least q of the samples at or below it.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[0]
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[len(xs)-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// refNominalMS is the reference kernel's typical time on the 2-vCPU Xeon
// host the benchmark was tuned on.
const refNominalMS = 3.5

// refEvery is the least time between two reference readings during measured
// rounds, so that short rounds spend little of the window on them.
const refEvery = 500 * time.Millisecond

// hostRef times a fixed reference kernel (sorting freshly allocated slices)
// three times and returns the median wall time in milliseconds.
func hostRef() float64 {
	var ts []float64
	for k := 0; k < 3; k++ {
		t := time.Now()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 8; i++ {
			xs := make([]int, 4096)
			for j := range xs {
				xs[j] = rng.Int()
			}
			sort.Ints(xs)
		}
		ts = append(ts, ms(time.Since(t)))
	}
	return median(ts)
}

// cpuClock is a reading of the kernel's CPU accounting summed over all CPUs,
// in clock ticks: time spent running (user, nice, system, irq, softirq) and
// time stolen by the hypervisor while a CPU wanted to run.
type cpuClock struct{ busy, steal uint64 }

// readCPUClock reads the aggregate line of /proc/stat. Where that is
// unavailable it returns a zero reading, and no steal is ever seen.
func readCPUClock() cpuClock {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuClock{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuClock{}
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return cpuClock{}
		}
	}
	return cpuClock{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolen is the share of the CPU time this machine wanted between a and b
// that the hypervisor took: steal over steal plus time running. Idle time
// does not count, since an idle CPU loses nothing to steal.
func stolen(a, b cpuClock) float64 {
	if b.busy < a.busy || b.steal < a.steal {
		return 0
	}
	want := (b.busy - a.busy) + (b.steal - a.steal)
	if want == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(want)
}

// runtimeSample is one read of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// memPeak tracks the peak of the memory the Go runtime holds from the OS
// (mapped minus returned), which for this pure-Go program is its resident
// set, while one round runs.
type memPeak struct {
	stop chan struct{}
	peak chan float64
}

// watchMemory starts sampling every 2 ms until peakMB is called.
func watchMemory() *memPeak {
	m := &memPeak{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64()-s[1].Value.Uint64())
		}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-m.stop:
				read()
				m.peak <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak in MiB.
func (m *memPeak) peakMB() float64 {
	close(m.stop)
	return <-m.peak
}
