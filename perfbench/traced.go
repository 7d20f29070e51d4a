package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/gpusim"
	"dedukt/internal/kserve"
	"dedukt/internal/obs"
	"dedukt/internal/pipeline"
)

// pipelinePairs is how many untraced/traced run pairs the traced pass
// makes for the phase split and the tracing overhead.
const pipelinePairs = 3

// serveProbeTime is how long the traced pass drives Service.LookupKeys.
const serveProbeTime = 2 * time.Second

// traced runs the per-layer pass. The workload's own counting pipeline is
// run with and without the obs recorder, then replayed layer by layer and
// checked against the run's Result; the counting path it does not use is
// replayed on the same input and checked against the oracle; and its
// spectrum is served through Service.LookupKeys.
func (w *workload) traced(opt options) (*result, error) {
	st, err := newCountState(w.count, opt.seed, opt.out)
	if err != nil {
		return nil, err
	}
	r := &result{input: st.info()}
	tr := newTracer()

	res := pipelinePass(r, tr, st)

	gpu := st.cfg.Layout.GPU != nil
	root := tr.begin("replay.own", noSpan, noSpan)
	own, err := replayPath(tr, root, st, st.cfg, gpu)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("replaying the workload's pipeline: %w", err)
	}
	r.attempted++
	if res == nil {
		r.fail("replay: no successful traced run to compare with")
	} else if msg := replayDiff(own, res, gpu); msg != "" {
		r.fail("replay does not match the traced run: %s", msg)
	} else if gpu {
		r.set("gpusim.count_order_delta", countOrderDelta(own.countSt, res.GPUCount), unitRatio)
	}
	r.attempted++
	if msg := st.oracle.spec.diff(own.spec); msg != "" {
		r.fail("replay spectrum: %s", msg)
	}

	// The other engine's path over the same input: what its layers cost
	// here, with a change to them predicted to leave this workload alone.
	other := offPathConfig(st, gpu)
	root = tr.begin("replay.offpath", noSpan, noSpan)
	off, err := replayPath(tr, root, st, other, !gpu)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("replaying the off-path pipeline: %w", err)
	}
	r.attempted++
	if msg := st.oracle.spec.diff(off.spec); msg != "" {
		r.fail("off-path replay spectrum: %s", msg)
	}
	for name, m := range own.layers {
		r.set(name, m.Value, m.Unit)
	}
	for name, m := range off.layers {
		if _, ok := own.layers[name]; ok {
			name = "offpath." + name
		}
		r.set(name, m.Value, m.Unit)
	}

	serveProbe(r, tr, st, opt.seed)
	r.spans = tr.spans
	return r, nil
}

// replayPath replays one counting path. The GPU replay runs on a single
// scheduler thread: gpusim then executes warps in index order, so the
// kernel statistics it reports repeat exactly from run to run.
func replayPath(tr *tracer, root int, st *countState, cfg pipeline.Config, gpu bool) (*replayed, error) {
	if !gpu {
		return replayKmers(tr, root, cfg, st.fq, st.bases)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return replaySupermers(tr, root, cfg, st.reads, st.bases)
}

// offPathConfig is the configuration of the counting path the workload
// does not run: for a GPU workload the out-of-core CPU k-mer
// configuration; for a CPU workload the GPU supermer path in one round on
// the workload's own rank count.
func offPathConfig(st *countState, gpu bool) pipeline.Config {
	if gpu {
		return cpuKmerConfig(st.bases)
	}
	ranks, per := st.cfg.Layout.Ranks(), cluster.SummitGPU(1).RanksPerNode
	return pipeline.Default(cluster.SummitGPU((ranks+per-1)/per), pipeline.SupermerMode)
}

// replayDiff compares a replay of the workload's own path with the
// Result of a real run: the spectrum, the exchanged payload volume, the
// parse kernel's statistics and the count kernel's launch geometry must
// agree exactly. The count kernel's other figures depend on which warp
// inserts a key first — gpusim runs warps on GOMAXPROCS workers, and a
// key's slot decides its probes and where its atomics land — so the
// pipeline's own runs differ in them by a few parts per million; they
// must agree to within orderTolerance.
func replayDiff(p *replayed, res *pipeline.Result, gpu bool) string {
	if msg := resultSpectrum(res).diff(p.spec); msg != "" {
		return msg
	}
	if p.payloadBytes != res.PayloadBytes {
		return fmt.Sprintf("payload bytes %d, run %d", p.payloadBytes, res.PayloadBytes)
	}
	if !gpu {
		return ""
	}
	if p.parseSt != res.GPUParse {
		return fmt.Sprintf("parse kernel stats %+v, run %+v", p.parseSt, res.GPUParse)
	}
	a, b := p.countSt, res.GPUCount
	if a.Threads != b.Threads || a.Blocks != b.Blocks || countOrderDelta(a, b) > orderTolerance {
		return fmt.Sprintf("count kernel stats %+v, run %+v", a, b)
	}
	return ""
}

// orderTolerance bounds the relative difference of the count kernel's
// warp-order-dependent statistics between a replay and a run.
const orderTolerance = 1e-3

// countOrderDelta is the largest relative difference between two count
// kernel statistics in the fields that depend on warp order: probes
// (ops, transactions, bytes requested) and atomics.
func countOrderDelta(a, b gpusim.KernelStats) float64 {
	rel := func(x, y uint64) float64 { return math.Abs(float64(x)-float64(y)) / math.Max(1, float64(y)) }
	return max(rel(a.ComputeOps, b.ComputeOps), rel(a.RawComputeOps, b.RawComputeOps),
		rel(a.MemTransactions, b.MemTransactions), rel(a.MemBytesRequested, b.MemBytesRequested),
		rel(a.AtomicOps, b.AtomicOps), rel(a.MaxAtomicPerAddr, b.MaxAtomicPerAddr))
}

// pipelinePass alternates untraced and traced runs of the workload's
// pipeline. It reports the recorder's phase split, the modeled times, the
// runtime's allocation and GC figures over the untraced runs, and the
// traced/untraced wall ratio. It returns the last traced Result that
// passed the correctness gate, or nil.
func pipelinePass(r *result, tr *tracer, st *countState) *pipeline.Result {
	var (
		plain, traced []float64
		rt            runtimeCounters
		last          *pipeline.Result
		rec           *obs.Recorder
	)
	for i := 0; i < pipelinePairs; i++ {
		runtime.GC()
		c0 := readRuntime()
		t0 := time.Now()
		res, err := st.run(st.cfg)
		t1 := time.Now()
		rt = rt.add(readRuntime().sub(c0))
		tr.add("pipeline.run", noSpan, noSpan, t0, t1)
		plain = append(plain, t1.Sub(t0).Seconds())
		r.attempted++
		if msg := st.check(res, err); msg != "" {
			r.fail("untraced run %d: %s", i, msg)
		}

		runtime.GC()
		cfg := st.cfg
		cfg.Obs = obs.NewRecorder(cfg.Layout.Ranks())
		t0 = time.Now()
		res, err = st.run(cfg)
		t1 = time.Now()
		tr.add("pipeline.run_traced", noSpan, noSpan, t0, t1)
		traced = append(traced, t1.Sub(t0).Seconds())
		r.attempted++
		if msg := st.check(res, err); msg != "" {
			r.fail("traced run %d: %s", i, msg)
			continue
		}
		last, rec = res, cfg.Obs
	}
	n := float64(pipelinePairs)
	r.set("pipeline.trace_overhead_ratio", ratio(median(traced), median(plain)), unitRatio)
	r.set("runtime.alloc_bytes_per_base", float64(rt.allocBytes)/n/float64(st.bases), unitRatio)
	r.set("runtime.gc_cycles", float64(rt.gcCycles)/n, unitCount)
	r.set("runtime.gc_cpu_fraction", ratio(rt.gcCPU, rt.totalCPU), unitRatio)
	r.set("pipeline.untraced_wall_s", median(plain), unitS)
	if last == nil {
		return nil
	}

	rep := rec.BuildReport()
	wall := func(phases ...string) float64 {
		var d time.Duration
		for _, p := range phases {
			d += rep.PhaseWall[p]
		}
		return d.Seconds()
	}
	r.set("pipeline.parse_wall_s", wall(obs.PhaseParse), unitS)
	r.set("pipeline.stage_h2d_wall_s", wall(obs.PhaseStageH2D), unitS)
	r.set("pipeline.exchange_wall_s", wall(obs.PhaseExchange), unitS)
	// Counting is one phase in memory and two (spill write, then bin
	// count) out of core; count_wall_s covers whichever ran.
	r.set("pipeline.count_wall_s", wall(obs.PhaseCount, obs.PhaseSpill, obs.PhaseBinCount), unitS)
	r.set("pipeline.spill_write_wall_s", wall(obs.PhaseSpill), unitS)
	r.set("pipeline.bin_count_wall_s", wall(obs.PhaseBinCount), unitS)
	r.set("pipeline.parse_modeled_s", last.Modeled.Parse.Seconds(), unitModeledS)
	r.set("pipeline.exchange_modeled_s", last.Modeled.Exchange.Seconds(), unitModeledS)
	r.set("pipeline.count_modeled_s", last.Modeled.Count.Seconds(), unitModeledS)
	r.set("pipeline.modeled_s", last.ModeledTotal().Seconds(), unitModeledS)
	r.set("pipeline.rounds", float64(last.Rounds), unitCount)
	r.set("pipeline.imbalance", last.LoadImbalance(), unitRatio)
	spill := rec.Registry().Counter("pipeline_spill_bytes_total", "Payload bytes appended to spill bin files (pass 1).")
	r.set("pipeline.spill_bytes", float64(spill.Value()), unitBytes)
	return last
}

// serveProbe serves the workload's spectrum with kserve defaults and
// drives Service.LookupKeys directly — no HTTP — from nproc callers with
// the serving workload's zipf key batches, checking every count. It also
// times kcount.Database.Get over the same keys.
func serveProbe(r *result, tr *tracer, st *countState, seed int64) {
	db := st.oracle.db
	ks := makeKeys(db, st.cfg.Enc, seed)
	root := tr.begin("kserve.probe", noSpan, noSpan)
	defer tr.end(root)

	svc, err := kserve.New(db, kserve.Options{})
	r.attempted++
	if err != nil {
		r.fail("kserve.New: %v", err)
		return
	}
	m0 := svc.Metrics()
	var (
		mu        sync.Mutex
		latencies []float64
		calls     int64
		failures  []string
		wg        sync.WaitGroup
	)
	deadline := time.Now().Add(serveProbeTime)
	sp := tr.begin("kserve.lookup_keys", root, noSpan)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lat []float64
			var fails []string
			for i := w; time.Now().Before(deadline); i += runtime.NumCPU() {
				b := i % len(ks.keys)
				t0 := time.Now()
				got, err := svc.LookupKeys(context.Background(), ks.keys[b])
				lat = append(lat, 1e6*time.Since(t0).Seconds())
				switch {
				case err != nil:
					fails = append(fails, err.Error())
				case !equalCounts(got, ks.want[b]):
					fails = append(fails, fmt.Sprintf("batch %d: counts differ from the database", b))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lat...)
			calls += int64(len(lat))
			failures = append(failures, fails...)
		}(w)
	}
	wg.Wait()
	tr.end(sp)
	m1 := svc.Metrics()
	svc.Close()
	r.attempted += calls
	for _, f := range failures {
		r.fail("LookupKeys: %s", f)
	}

	var served, batches uint64
	for _, s := range m1.PerShard {
		served += s.Served
		batches += s.Batches
	}
	for _, s := range m0.PerShard {
		served -= s.Served
		batches -= s.Batches
	}
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	r.set("kserve.lookup_keys_p50_us", quantile(latencies, 0.5), unitUS)
	r.set("kserve.lookup_keys_p99_us", quantile(latencies, 0.99), unitUS)
	r.set("kserve.lookup_keys_calls", float64(calls), unitCount)
	r.set("kserve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), unitRatio)
	r.set("kserve.mean_batch_size", ratio(float64(served), float64(batches)), unitCount)
	r.set("kserve.rejected_ratio", ratio(float64(m1.Rejected-m0.Rejected), float64(m1.Requests-m0.Requests)), unitRatio)

	sp = tr.begin("kcount.db_get", root, noSpan)
	bad := 0
	for b, keys := range ks.keys {
		for i, k := range keys {
			if db.Get(k) != ks.want[b][i] {
				bad++
			}
		}
	}
	tr.end(sp)
	r.attempted++
	if bad > 0 {
		r.fail("Database.Get: %d keys differ from the generated load", bad)
	}
	r.set("kcount.db_get_s", tr.seconds("kcount.db_get", root), unitS)
}

func equalCounts(got, want []uint32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
