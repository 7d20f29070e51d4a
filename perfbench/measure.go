package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// repeat runs fn n times and returns its wall times in seconds,
// collecting the garbage of the previous round first so each repetition
// starts from the same heap.
func repeat(n int, fn func() error) ([]float64, error) {
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return walls, nil
}

// heapSampler records the peak of live heap objects while it runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMiB stops the sampler and returns the peak in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters snapshots the Go runtime's allocation and GC totals.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes + o.allocBytes, gcCycles: c.gcCycles + o.gcCycles,
		gcCPU: c.gcCPU + o.gcCPU, totalCPU: c.totalCPU + o.totalCPU,
	}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - o.allocBytes, gcCycles: c.gcCycles - o.gcCycles,
		gcCPU: c.gcCPU - o.gcCPU, totalCPU: c.totalCPU - o.totalCPU,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds returns the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
