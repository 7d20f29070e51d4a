package main

// metricDef declares one metric of the contract set. The tables below are
// the single source of BENCHMARK.json's end_to_end and per_layer lists;
// TestMetricTablesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit string
}

// Units. Modeled quantities come from the Summit cost model, not from the
// host clock, so they carry their own unit ("s_modeled") and never read as
// wall time; they repeat exactly from run to run by design.
const (
	unitS        = "s"
	unitMS       = "ms"
	unitUS       = "us"
	unitPerS     = "1/s"
	unitMiB      = "MiB"
	unitCount    = "count"
	unitRatio    = "ratio"
	unitModeledS = "s_modeled"
	unitGBps     = "GB/s"
	unitMBps     = "MB/s"
	unitBytes    = "bytes"
)

// endToEndMetrics are what a user of the system sees, measured untraced.
// Every workload reports every one of them:
//
//   - throughput_per_s: input bases counted per second of the median
//     timed iteration (counting workloads), or closed-loop lookups per
//     second (serve-zipf);
//   - latency_p50_ms: median wall of one full counting run, or median
//     open-loop /batch latency timed from each request's scheduled send;
//   - peak_heap_mib: peak heap in use while the timed loop ran;
//   - setup_s: median of three complete set-ups (input generation, FASTQ
//     rendering, the serial oracle, a warm-up iteration; for serving also
//     counting, building the database and starting the server).
//
// The open loop's p99 (lookup_p99_ms) is measured and reported but kept
// out of this set: on a shared 2-core host it swung between 3 and 12 ms
// across runs of the same code, far past any bound that could gate it.
// Counting runs are too few per run for any percentile above the median.
var endToEndMetrics = []metricDef{
	{"setup_s", unitS},
	{"throughput_per_s", unitPerS},
	{"latency_p50_ms", unitMS},
	{"peak_heap_mib", unitMiB},
}

// perLayerMetrics come from the traced pass. Every workload reports every
// one: layers its own pipeline uses are replayed on its own per-rank
// partitions and checked against the end-to-end Result; layers it does
// not use are probed on the same input, so a change to them shows where
// it lands and predicts no end-to-end change elsewhere.
var perLayerMetrics = []metricDef{
	{"minimizer.build_s", unitS},
	{"minimizer.supermers", unitCount},
	{"kernels.build_supermers_s", unitS},
	{"gpusim.overhead_ratio", unitRatio},
	{"gpusim.transactions", unitCount},
	{"gpusim.coalescing_efficiency", unitRatio},
	{"gpusim.atomics", unitCount},
	{"gpusim.divergence_waste", unitRatio},
	{"gpusim.kernel_modeled_s", unitModeledS},
	{"kernels.count_supermers_s", unitS},
	{"kcount.insert_s", unitS},
	{"kcount.inserts_per_s", unitPerS},
	{"kcount.probes_per_insert", unitRatio},
	{"kcount.topk_s", unitS},
	{"kcount.histogram_s", unitS},
	{"kcount.binacc_s", unitS},
	{"kcount.db_get_s", unitS},
	{"fastq.parse_s", unitS},
	{"fastq.mb_per_s", unitMBps},
	{"dna.pack_s", unitS},
	{"kmer.extract_s", unitS},
	{"kmer.kmers", unitCount},
	{"kernels.frame_s", unitS},
	{"kernels.payload_bytes_per_base", unitRatio},
	{"kernels.items_per_base", unitRatio},
	{"mpisim.alltoallv_s", unitS},
	{"mpisim.alltoallv_wait_s", unitS},
	{"mpisim.bytes_offnode", unitBytes},
	{"mpisim.messages", unitCount},
	{"mpisim.effective_gbps", unitGBps},
	{"mpisim.modeled_gbps", unitGBps},
	{"pipeline.parse_wall_s", unitS},
	{"pipeline.exchange_wall_s", unitS},
	{"pipeline.count_wall_s", unitS},
	{"pipeline.parse_modeled_s", unitModeledS},
	{"pipeline.exchange_modeled_s", unitModeledS},
	{"pipeline.count_modeled_s", unitModeledS},
	{"pipeline.modeled_s", unitModeledS},
	{"pipeline.rounds", unitCount},
	{"pipeline.imbalance", unitRatio},
	{"pipeline.spill_bytes", unitBytes},
	{"pipeline.trace_overhead_ratio", unitRatio},
	{"kserve.lookup_keys_p50_us", unitUS},
	{"kserve.lookup_keys_p99_us", unitUS},
	{"kserve.cache_hit_ratio", unitRatio},
	{"kserve.mean_batch_size", unitCount},
	{"kserve.rejected_ratio", unitRatio},
	{"runtime.alloc_bytes_per_base", unitRatio},
	{"runtime.gc_cpu_fraction", unitRatio},
	{"runtime.gc_cycles", unitCount},
}
