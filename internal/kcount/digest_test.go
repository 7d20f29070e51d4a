package kcount

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// fullSortSummary is the reference the digest must match: totals and the
// histogram by direct tally, the top-k by sorting every pair.
func fullSortSummary(pairs []KV, k int) (total, distinct uint64, hist map[uint32]uint64, top []KV) {
	hist = map[uint32]uint64{}
	all := append([]KV(nil), pairs...)
	for _, p := range all {
		total += uint64(p.Count)
		hist[p.Count]++
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	return total, uint64(len(all)), hist, all[:min(k, len(all))]
}

// randomPairs draws n distinct keys with counts that tie heavily, reach
// past the digest's dense histogram range, and include zero.
func randomPairs(rng *rand.Rand, n int) []KV {
	seen := map[uint64]bool{}
	var pairs []KV
	for len(pairs) < n {
		key := uint64(rng.Intn(4 * n))
		if seen[key] {
			continue
		}
		seen[key] = true
		var c uint32
		switch rng.Intn(4) {
		case 0:
			c = uint32(rng.Intn(4)) // ties, and zero counts
		case 1:
			c = 250 + uint32(rng.Intn(12)) // straddles the dense/sparse boundary
		case 2:
			c = 1 << (8 + rng.Intn(20))
		default:
			c = uint32(rng.Intn(40))
		}
		pairs = append(pairs, KV{key, c})
	}
	return pairs
}

func checkDigest(t *testing.T, d *Digest, pairs []KV, k int) {
	t.Helper()
	total, distinct, hist, top := fullSortSummary(pairs, k)
	if d.Total() != total || d.Distinct() != distinct {
		t.Fatalf("k=%d: total/distinct %d/%d, want %d/%d", k, d.Total(), d.Distinct(), total, distinct)
	}
	if !reflect.DeepEqual(d.Histogram().Counts, hist) {
		t.Fatalf("k=%d: histogram %v, want %v", k, d.Histogram().Counts, hist)
	}
	if got := d.TopK(); len(got) != len(top) || (len(top) > 0 && !reflect.DeepEqual(got, top)) {
		t.Fatalf("k=%d: top %v, want %v", k, got, top)
	}
}

func TestDigestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		pairs := randomPairs(rng, 1+rng.Intn(300))
		n := len(pairs)
		for _, k := range []int{0, 1, 7, 64, n - 1, n, n + 5} {
			d := NewDigest(k)
			for _, i := range rng.Perm(n) {
				d.Add(pairs[i].Key, pairs[i].Count)
			}
			checkDigest(t, d, pairs, k)

			tab := NewTable(1, Linear)
			for _, p := range pairs {
				tab.Add(p.Key, p.Count)
			}
			_, _, hist, top := fullSortSummary(pairs, k)
			if got := tab.TopK(k); len(got) != len(top) || (len(top) > 0 && !reflect.DeepEqual(got, top)) {
				t.Fatalf("Table.TopK(%d) = %v, want %v", k, got, top)
			}
			if !reflect.DeepEqual(tab.Histogram().Counts, hist) {
				t.Fatalf("Table.Histogram = %v, want %v", tab.Histogram().Counts, hist)
			}
		}
	}
}

func TestDigestTiesStraddlingK(t *testing.T) {
	// Ten keys tie at the k-th count; the kept ones are the smallest keys,
	// whatever order they arrive in.
	var pairs []KV
	for i := 0; i < 10; i++ {
		pairs = append(pairs, KV{uint64(100 - i), 5})
	}
	pairs = append(pairs, KV{7, 9}, KV{8, 9}, KV{1, 2})
	for _, k := range []int{1, 2, 3, 4, 11, 12} {
		for _, rev := range []bool{false, true} {
			d := NewDigest(k)
			for i := range pairs {
				p := pairs[i]
				if rev {
					p = pairs[len(pairs)-1-i]
				}
				d.Add(p.Key, p.Count)
			}
			checkDigest(t, d, pairs, k)
		}
	}
}

func TestDigestEmpty(t *testing.T) {
	for _, k := range []int{0, 64} {
		d := NewDigest(k)
		if d.Total() != 0 || d.Distinct() != 0 || len(d.Histogram().Counts) != 0 {
			t.Fatalf("empty digest reports %d/%d/%v", d.Total(), d.Distinct(), d.Histogram().Counts)
		}
		if top := d.TopK(); top == nil || len(top) != 0 {
			t.Fatalf("empty digest top %#v, want an empty list", top)
		}
	}
	if top := NewTable(1, Linear).TopK(5); top == nil || len(top) != 0 {
		t.Fatalf("empty table top %#v, want an empty list", top)
	}
}

func TestAtomicTableProbesSumStripes(t *testing.T) {
	// Concurrent inserts spread over the probe stripes; Probes must equal
	// the sum of what every insert reported.
	at := NewAtomicTable(4000, 0.5, Linear)
	var want atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				_, probes, err := at.Inc(uint64(rng.Intn(3000)) * 977)
				if err != nil {
					t.Error(err)
					return
				}
				want.Add(uint64(probes))
			}
		}(int64(w))
	}
	wg.Wait()
	if at.Probes() != want.Load() {
		t.Fatalf("Probes() = %d, want the %d the inserts reported", at.Probes(), want.Load())
	}
}

func TestBinAccumulatorMatchesSingleTable(t *testing.T) {
	// Heavy ties and counts past the dense histogram range, split across
	// bins by a rule unrelated to the counts.
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 10; trial++ {
		pairs := randomPairs(rng, 50+rng.Intn(500))
		whole := NewTable(1, Linear)
		bins := make([]*Table, 1+rng.Intn(9))
		for i := range bins {
			bins[i] = NewTable(1, Linear)
		}
		for _, p := range pairs {
			whole.Add(p.Key, p.Count)
			bins[p.Key%uint64(len(bins))].Add(p.Key, p.Count)
		}
		a := NewBinAccumulator(64)
		for _, b := range bins {
			a.AddTable(b)
		}
		assertSameSpectrum(t, whole, a)
	}
}
