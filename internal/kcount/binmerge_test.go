package kcount

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestBinAccumulatorEmpty: an accumulator that saw no bins (or only nil
// and empty ones) reports the zero spectrum — the same shape an empty
// Table reports, so a rank whose slice is empty folds identically.
func TestBinAccumulatorEmpty(t *testing.T) {
	a := NewBinAccumulator(64)
	a.AddTable(nil)
	a.AddTable(NewTable(1, Linear))
	if a.Total() != 0 || a.Distinct() != 0 {
		t.Fatalf("empty accumulator reports %d/%d", a.Total(), a.Distinct())
	}
	if len(a.Histogram().Counts) != 0 {
		t.Fatalf("empty accumulator histogram %v", a.Histogram().Counts)
	}
	if len(a.TopK()) != 0 {
		t.Fatalf("empty accumulator top-k %v", a.TopK())
	}
}

// TestBinAccumulatorSingletons: bins holding one k-mer each — the
// degenerate partition — fold to the same spectrum as one table holding
// them all, including the count-desc/key-asc top-k tie-break.
func TestBinAccumulatorSingletons(t *testing.T) {
	whole := NewTable(8, Linear)
	a := NewBinAccumulator(64)
	for i, count := range []uint32{5, 2, 5, 9, 1} {
		key := uint64(1000 + i)
		whole.Add(key, count)
		bin := NewTable(1, Linear)
		bin.Add(key, count)
		a.AddTable(bin)
	}
	assertSameSpectrum(t, whole, a)
}

// TestBinAccumulatorCollidingBins: keys engineered to land in the same
// table slots (and to cross any minimizer-style grouping arbitrarily)
// are split across bins by a rule unrelated to either — the fold must
// still be exact, because correctness rests only on bins being
// key-disjoint, not on how the partition relates to hashes or orderings.
func TestBinAccumulatorCollidingBins(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const bins = 7
	whole := NewTable(512, Linear)
	parts := make([]*Table, bins)
	for b := range parts {
		// Deliberately tiny: every bin table grows through collisions.
		parts[b] = NewTable(1, Linear)
	}
	for i := 0; i < 2_000; i++ {
		// Low-entropy keys: many slot collisions inside each table, and
		// duplicate counts so the top-k tie-break is exercised hard.
		key := uint64(rng.Intn(600)) * 64
		whole.Inc(key)
		parts[key%bins].Inc(key)
	}
	a := NewBinAccumulator(64)
	for _, p := range parts {
		a.AddTable(p)
	}
	assertSameSpectrum(t, whole, a)
}

// TestBinAccumulatorTopKTruncation: when the union of per-bin top-ks
// exceeds the cap, the merged list keeps the globally heaviest entries
// in Table.TopK's exact order.
func TestBinAccumulatorTopKTruncation(t *testing.T) {
	a := NewBinAccumulator(3)
	whole := NewTable(16, Linear)
	for b := 0; b < 4; b++ {
		bin := NewTable(4, Linear)
		for i := 0; i < 3; i++ {
			key := uint64(100*b + i)
			count := uint32(10*b + i + 1)
			bin.Add(key, count)
			whole.Add(key, count)
		}
		a.AddTable(bin)
	}
	if got, want := a.TopK(), whole.TopK(3); !reflect.DeepEqual(got, want) {
		t.Fatalf("truncated top-k %v, want %v", got, want)
	}
}

// assertSameSpectrum compares the accumulator's fold against counting
// everything in one table: total, distinct, histogram, and top-k must be
// bit-identical, to the table's own summaries and to a full sort.
func assertSameSpectrum(t *testing.T, whole *Table, a *BinAccumulator) {
	t.Helper()
	if a.Total() != whole.TotalCount() {
		t.Fatalf("total %d, want %d", a.Total(), whole.TotalCount())
	}
	if a.Distinct() != uint64(whole.Len()) {
		t.Fatalf("distinct %d, want %d", a.Distinct(), whole.Len())
	}
	if !reflect.DeepEqual(a.Histogram().Counts, whole.Histogram().Counts) {
		t.Fatalf("histogram %v, want %v", a.Histogram().Counts, whole.Histogram().Counts)
	}
	if got, want := a.TopK(), whole.TopK(64); !reflect.DeepEqual(got, want) {
		t.Fatalf("top-k %v, want %v", got, want)
	}
	// Table.TopK and the accumulator share the bounded selection, so also
	// check against the full-sort reference over the whole table.
	var pairs []KV
	whole.ForEach(func(k uint64, c uint32) { pairs = append(pairs, KV{k, c}) })
	checkDigest(t, &a.Digest, pairs, 64)
}
