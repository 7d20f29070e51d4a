package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/kcount"
	"dedukt/internal/pipeline"
)

// workload is one named input and configuration. Counting workloads time
// full pipeline runs; serve-zipf times lookups against a served spectrum
// and counts its input only during set-up.
type workload struct {
	name string
	// count generates the workload's reads and pipeline configuration.
	count countSpec
	serve bool
}

// countSpec fixes a counting configuration and the input it runs on.
type countSpec struct {
	// reads generates the input reads from the seed.
	reads func(seed int64) ([]fastq.Record, error)
	// config returns the pipeline configuration for an input of the given
	// size, without the per-iteration spill directory.
	config func(bases uint64) pipeline.Config
	// stream runs pipeline.RunStream over the rendered FASTQ with disk
	// spill; otherwise the in-memory pipeline.Run over the reads.
	stream bool
}

var workloads = []*workload{
	{
		// The paper's headline configuration on the repeat-heavy human-like
		// input: GPU engine, supermers, flat exchange, about four rounds.
		name:  "gpu-supermer",
		count: countSpec{reads: humanLongReads, config: gpuSupermerConfig},
	},
	{
		// The out-of-core path: CPU engine, k-mers, hierarchical exchange,
		// streamed FASTQ under a 32 MiB budget, two-pass disk spill.
		name:  "cpu-kmer-outofcore",
		count: countSpec{reads: bacterialShortReads, config: cpuKmerConfig, stream: true},
	},
	{
		// The query path over the spectrum of cpu-kmer-outofcore's input.
		name:  "serve-zipf",
		count: countSpec{reads: bacterialShortReads, config: cpuKmerConfig, stream: true},
		serve: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// humanLongReads is the "H. sapien 54X" dataset at a tenth of its scaled
// genome: a 40 kb genome with 45% repeats read at 54× in 150-base reads,
// about 2.2 M bases.
func humanLongReads(seed int64) ([]fastq.Record, error) {
	g, err := genome.Generate("H. sapien 54X", genome.Config{
		Length: 40_000, RepeatFraction: 0.45, RepeatMinLen: 200, RepeatMaxLen: 1500,
		GC: 0.5, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	prof := genome.DefaultLongReads()
	prof.MeanLen, prof.Sigma, prof.Seed = 150, 0.3, seed+1
	return genome.SimulateReads(g, 54, prof)
}

// bacterialShortReads is 150 bp short reads at 20× from a 500 kb genome
// with 5% repeats, about 10 M bases.
func bacterialShortReads(seed int64) ([]fastq.Record, error) {
	cfg := genome.DefaultConfig(500_000)
	cfg.Seed = seed
	g, err := genome.Generate("bacterial 20X", cfg)
	if err != nil {
		return nil, err
	}
	prof := genome.DefaultShortReads()
	prof.Seed = seed + 1
	return genome.SimulateReads(g, 20, prof)
}

// gpuRounds is how many rounds the gpu-supermer input is cut into.
const gpuRounds = 4

func gpuSupermerConfig(bases uint64) pipeline.Config {
	cfg := pipeline.Default(cluster.SummitGPU(2), pipeline.SupermerMode)
	perRank := int(bases) / cfg.Layout.Ranks()
	// Reads are whole, so a cap slightly above a quarter of a rank's
	// bases gives four rounds rather than a fifth with one read in it.
	cfg.RoundBases = perRank/gpuRounds + perRank/50
	return cfg
}

// spillBins is the spill bin count per rank of the out-of-core workload.
// At the default 32 bins a run creates, seals and deletes 42 × 32 = 1,344
// files; on an ext4 host that costs about 1.4 s of kernel time per run,
// half the run, and the file-system metadata work made the run-to-run
// spread 22-26%. Four bins (168 files) keep the write-then-count path and
// leave the counting layers measurable.
const spillBins = 4

// cpuKmerConfig is the out-of-core configuration; run sets the spill
// directory, without which Validate rejects the bin count.
func cpuKmerConfig(uint64) pipeline.Config {
	cfg := pipeline.Default(cluster.SummitCPU(1), pipeline.KmerMode)
	cfg.Exchange = pipeline.ExchangeHier
	cfg.MemBudgetBytes = 32 << 20
	cfg.Spill.Bins = spillBins
	return cfg
}

// topK is how many top k-mers the correctness gate compares (the pipeline
// keeps 64).
const topK = 64

// spectrum is the part of a counted result the correctness gate compares.
type spectrum struct {
	distinct, total uint64
	hist            map[uint32]uint64
	top             []kcount.KV
}

func resultSpectrum(res *pipeline.Result) spectrum {
	return spectrum{distinct: res.DistinctKmers, total: res.TotalKmers, hist: res.Histogram.Counts, top: res.TopKmers}
}

// diff describes the first difference between two spectra, or "".
func (s spectrum) diff(o spectrum) string {
	switch {
	case s.distinct != o.distinct:
		return fmt.Sprintf("distinct k-mers %d, want %d", o.distinct, s.distinct)
	case s.total != o.total:
		return fmt.Sprintf("total k-mers %d, want %d", o.total, s.total)
	case len(s.hist) != len(o.hist):
		return fmt.Sprintf("%d histogram classes, want %d", len(o.hist), len(s.hist))
	case len(s.top) != len(o.top):
		return fmt.Sprintf("%d top k-mers, want %d", len(o.top), len(s.top))
	}
	for f, n := range s.hist {
		if o.hist[f] != n {
			return fmt.Sprintf("histogram class %d holds %d k-mers, want %d", f, o.hist[f], n)
		}
	}
	for i := range s.top {
		if s.top[i] != o.top[i] {
			return fmt.Sprintf("top k-mer %d is %+v, want %+v", i, o.top[i], s.top[i])
		}
	}
	return ""
}

// sortTop orders k-mers by count descending, keys ascending among ties
// (the pipeline's order), and keeps the first n.
func sortTop(kv []kcount.KV, n int) []kcount.KV {
	sort.Slice(kv, func(i, j int) bool {
		if kv[i].Count != kv[j].Count {
			return kv[i].Count > kv[j].Count
		}
		return kv[i].Key < kv[j].Key
	})
	if len(kv) > n {
		kv = kv[:n]
	}
	return kv
}

// oracle is the serial reference count of a workload's reads.
type oracle struct {
	spec spectrum
	db   *kcount.Database
}

func newOracle(cfg pipeline.Config, reads []fastq.Record) oracle {
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	m := kcount.SerialCount(cfg.Enc, seqs, cfg.K)
	s := spectrum{distinct: uint64(len(m)), hist: map[uint32]uint64{}}
	t := kcount.NewTable(len(m), kcount.Linear)
	all := make([]kcount.KV, 0, len(m))
	for key, c := range m {
		s.total += uint64(c)
		s.hist[c]++
		t.Add(uint64(key), c)
		all = append(all, kcount.KV{Key: uint64(key), Count: c})
	}
	s.top = append([]kcount.KV(nil), sortTop(all, topK)...)
	return oracle{spec: s, db: kcount.FromTable(t, cfg.K, 0)}
}

// countState is a counting workload after set-up: its input, the oracle
// and the configuration every iteration runs.
type countState struct {
	spec   countSpec
	cfg    pipeline.Config
	reads  []fastq.Record
	fq     []byte
	bases  uint64
	oracle oracle
	dir    string // parent of the per-iteration spill directories
}

func newCountState(spec countSpec, seed int64, dir string) (*countState, error) {
	reads, err := spec.reads(seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	var bases uint64
	for _, r := range reads {
		if err := w.Write(r); err != nil {
			return nil, err
		}
		bases += uint64(len(r.Seq))
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	st := &countState{spec: spec, cfg: spec.config(bases), reads: reads, fq: buf.Bytes(), bases: bases, dir: dir}
	st.oracle = newOracle(st.cfg, reads)
	return st, nil
}

func (s *countState) info() inputInfo {
	return inputInfo{Reads: len(s.reads), Bases: s.bases, FastqBytes: len(s.fq), Distinct: s.oracle.spec.distinct}
}

// trim drops what the timed runs do not read — the input form the
// pipeline does not consume and the oracle's database — so the live heap
// the garbage collector marks during timing holds only the input.
func (s *countState) trim() {
	if s.spec.stream {
		s.reads = nil
	} else {
		s.fq = nil
	}
	s.oracle.db = nil
}

// run executes one full pipeline run of the workload.
func (s *countState) run(cfg pipeline.Config) (*pipeline.Result, error) {
	if !s.spec.stream {
		return pipeline.Run(cfg, s.reads)
	}
	dir, err := os.MkdirTemp(s.dir, "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.Spill.Dir = dir
	src := fastq.NewStream(fastq.Input{Name: "generated.fastq", R: bytes.NewReader(s.fq)})
	return pipeline.RunStream(cfg, src)
}

// check is the correctness gate of one counting run: it fails on an
// error, an incomplete result, or a spectrum other than the oracle's.
func (s *countState) check(res *pipeline.Result, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case res.Incomplete:
		return "result marked incomplete"
	}
	return s.oracle.spec.diff(resultSpectrum(res))
}

// kmerString renders a packed k-mer as bases.
func kmerString(enc *dna.Encoding, k int, key uint64) string {
	return string(enc.DecodeSeq(nil, dna.Kmer(key).Codes(nil, k)))
}
