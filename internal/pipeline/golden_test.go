package pipeline

import (
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"dedukt/internal/gpusim"
)

// modeledGolden is everything a run reports on the modeled clock, plus the
// exchanged volume and a digest of the top-64 list (the kernel statistics
// stay zero on the CPU engine). Host-side speedups of the simulator, the
// minimizer scan, the word framing, the spill path or the table summaries
// must leave every field bit-identical.
type modeledGolden struct {
	Parse, Count  gpusim.KernelStats
	Modeled       PhaseBreakdown
	Total         time.Duration
	PayloadBytes  uint64
	AlltoallvTime time.Duration
	TopLen        int
	TopDigest     uint64
}

func goldenOf(res *Result) modeledGolden {
	h := fnv.New64a()
	var buf [12]byte
	for _, kv := range res.TopKmers {
		for i := 0; i < 8; i++ {
			buf[i] = byte(kv.Key >> (8 * i))
		}
		for i := 0; i < 4; i++ {
			buf[8+i] = byte(kv.Count >> (8 * i))
		}
		h.Write(buf[:])
	}
	return modeledGolden{
		Parse:         res.GPUParse,
		Count:         res.GPUCount,
		Modeled:       res.Modeled,
		Total:         res.ModeledTotal(),
		PayloadBytes:  res.PayloadBytes,
		AlltoallvTime: res.AlltoallvTime,
		TopLen:        len(res.TopKmers),
		TopDigest:     h.Sum64(),
	}
}

// TestModeledNumbersGolden pins the modeled output of fixed small GPU
// supermer and GPU k-mer runs, and of a CPU k-mer run through the
// hierarchical exchange and the out-of-core spill path. It runs on one
// scheduler thread: the count kernels' memory statistics depend on which
// thread inserts a k-mer first (the one that claims the slot pays the
// CAS), and with several launch workers that order follows goroutine
// scheduling.
func TestModeledNumbersGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reads := testReads(t, 12_000, 6)
	gpu := func(mode Mode) func(t *testing.T) Config {
		return func(*testing.T) Config { return Default(smallGPULayout(2), mode) }
	}
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
		want modeledGolden
	}{
		{"supermer", gpu(SupermerMode), modeledGolden{
			Parse:         gpusim.KernelStats{Threads: 11714, Blocks: 144, ComputeOps: 0xb88520, RawComputeOps: 0x906569, MemTransactions: 0x11570, MemBytesRequested: 0xfffe4},
			Count:         gpusim.KernelStats{Threads: 16608, Blocks: 95, ComputeOps: 0x335c20, RawComputeOps: 0x1a1f3d, MemTransactions: 0x280d8, MemBytesRequested: 0x11dae4, AtomicOps: 0x15a65, MaxAtomicPerAddr: 0xd},
			Modeled:       PhaseBreakdown{Parse: 41793, Exchange: 348336, Count: 78530},
			Total:         468659,
			PayloadBytes:  0x247e0,
			AlltoallvTime: 137742,
			TopLen:        64,
			TopDigest:     0xd4b27a80f83b98ea,
		}},
		{"kmer", gpu(KmerMode), modeledGolden{
			Parse:         gpusim.KernelStats{Threads: 171386, Blocks: 735, ComputeOps: 0x79ca00, RawComputeOps: 0x755baa, MemTransactions: 0x18972, MemBytesRequested: 0x384571},
			Count:         gpusim.KernelStats{Threads: 69019, Blocks: 298, ComputeOps: 0x13e980, RawComputeOps: 0xb460a, MemTransactions: 0x2cba3, MemBytesRequested: 0x18a204, AtomicOps: 0x15d1a, MaxAtomicPerAddr: 0x10},
			Modeled:       PhaseBreakdown{Parse: 50530, Exchange: 474538, Count: 76333},
			Total:         601401,
			PayloadBytes:  0x86cd8,
			AlltoallvTime: 261285,
			TopLen:        64,
			TopDigest:     0xd4b27a80f83b98ea,
		}},
		// Two nodes, so the hierarchical exchange crosses the fabric and
		// its modeled time is not zero.
		{"cpu-kmer-spill", func(t *testing.T) Config {
			cfg := Default(smallCPULayout(2), KmerMode)
			cfg.Exchange = ExchangeHier
			cfg.Spill = SpillConfig{Dir: t.TempDir(), Bins: 4}
			return cfg
		}, modeledGolden{
			Modeled:       PhaseBreakdown{Parse: 3326827, Exchange: 271789, Count: 3182868},
			Total:         6781484,
			PayloadBytes:  0x86cd8,
			AlltoallvTime: 182537,
			TopLen:        64,
			TopDigest:     0xd4b27a80f83b98ea,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			cfg.RoundBases = 2_000 // several rounds, so table growth is exercised
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, cfg, reads, res)
			if res.Rounds < 2 {
				t.Fatalf("Rounds = %d, want a multi-round run", res.Rounds)
			}
			if got := goldenOf(res); got != tc.want {
				t.Fatalf("modeled output moved:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
