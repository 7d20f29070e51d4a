package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// minIterations is the fewest timed counting runs a result rests on.
const minIterations = 5

// setupRepeats is how many complete set-ups setup_s takes the median of.
const setupRepeats = 3

// endToEnd runs the workload untraced and reports the end-to-end metrics.
func (w *workload) endToEnd(opt options) (*result, error) {
	if w.serve {
		return serveEndToEnd(w, opt)
	}
	r := &result{}
	var (
		st     *countState
		warmup string
	)
	setups, err := repeat(setupRepeats, func() error {
		st = nil // drop the previous set-up before building the next
		s, err := newCountState(w.count, opt.seed, opt.out)
		if err != nil {
			return err
		}
		res, err := s.run(s.cfg)
		warmup = s.check(res, err)
		st = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.input = st.info()
	r.set("setup_s", median(setups), unitS)
	r.attempted++
	if warmup != "" {
		r.fail("warm-up run: %s", warmup)
	}

	st.trim()
	runtime.GC()
	heap := startHeapSampler()
	var walls, modeled, cpu []float64
	deadline := time.Now().Add(opt.seconds)
	for i := 0; i < minIterations || time.Now().Before(deadline); i++ {
		// Every run starts from a collected heap, so no run pays for the
		// garbage of the one before it.
		runtime.GC()
		c0 := cpuSeconds()
		t0 := time.Now()
		res, err := st.run(st.cfg)
		wall := time.Since(t0).Seconds()
		cpu = append(cpu, cpuSeconds()-c0)
		r.attempted++
		if msg := st.check(res, err); msg != "" {
			r.fail("iteration %d: %s", i, msg)
			continue
		}
		walls = append(walls, wall)
		modeled = append(modeled, res.ModeledTotal().Seconds())
	}
	r.set("peak_heap_mib", heap.stopMiB(), unitMiB)

	wall := median(walls)
	r.set("throughput_per_s", ratio(float64(st.bases), wall), unitPerS)
	r.set("latency_p50_ms", 1e3*wall, unitMS)
	// Report-only numbers: the throughput under its per-workload name, the
	// modeled clock and the error ratio.
	r.set("bases_per_s", ratio(float64(st.bases), wall), unitPerS)
	r.set("modeled_s", median(modeled), unitModeledS)
	r.set("error_ratio", ratio(float64(r.failed), float64(r.attempted)), unitRatio)
	r.set("iterations", float64(len(walls)), unitCount)
	r.set("iteration_cpu_s", median(cpu), unitS)
	r.samples = map[string][]float64{"iteration_s": walls, "iteration_cpu_s": cpu, "setup_s": setups}
	if lo, hi := minMax(modeled); lo != hi {
		r.notes = append(r.notes, fmt.Sprintf("modeled_s varied across iterations: %.9g..%.9g", lo, hi))
	}
	return r, nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
