package kcount

import "slices"

// Digest summarizes a spectrum in one pass: fed every (key, count) pair —
// of one table, or of key-disjoint parts of one, such as a rank's spill
// bins — it yields the total, the distinct count, the frequency histogram
// and the top-K pairs (count descending, key ascending). The histogram
// tallies counts below histDense in an array and only the rare higher
// classes in a map, and the top-K is a bounded heap, so a pass costs
// O(n log K) with no per-pair allocation.
type Digest struct {
	total, distinct uint64
	dense           [histDense]uint64
	sparse          map[uint32]uint64
	top             topK
}

// histDense is the count range the digest's histogram keeps in an array.
const histDense = 256

// NewDigest returns an empty digest keeping the topK highest-count pairs.
func NewDigest(topK int) *Digest { return &Digest{top: newTopK(topK, 0)} }

// Add folds one (key, count) pair in. Keys must be distinct across calls.
func (d *Digest) Add(key uint64, count uint32) {
	d.total += uint64(count)
	d.distinct++
	if count < histDense {
		d.dense[count]++
	} else {
		if d.sparse == nil {
			d.sparse = make(map[uint32]uint64)
		}
		d.sparse[count]++
	}
	d.top.add(key, count)
}

// Total returns the summed counts (the k-mer multiset size).
func (d *Digest) Total() uint64 { return d.total }

// Distinct returns the number of pairs added.
func (d *Digest) Distinct() uint64 { return d.distinct }

// Histogram returns the frequency histogram of the pairs added.
func (d *Digest) Histogram() Histogram {
	h := Histogram{Counts: make(map[uint32]uint64, len(d.sparse))}
	for f, n := range d.dense {
		if n != 0 {
			h.Counts[uint32(f)] = n
		}
	}
	for f, n := range d.sparse {
		h.Counts[f] = n
	}
	return h
}

// TopK returns the top-K pairs, counts descending, keys ascending among
// ties.
func (d *Digest) TopK() []KV { return d.top.sorted() }

// topK keeps the k best pairs seen, best meaning count descending, then
// key ascending, in a binary min-heap whose root is the worst pair kept.
// The order is total over distinct keys, so the kept set does not depend
// on the order the pairs arrive in.
type topK struct {
	k    int
	heap []KV
}

// newTopK returns an empty selection of k pairs; hint bounds how many
// pairs will be offered (0 if unknown) and only sizes the heap.
func newTopK(k, hint int) topK {
	k = max(k, 0)
	if hint > 0 {
		return topK{k: k, heap: make([]KV, 0, min(k, hint))}
	}
	return topK{k: k}
}

// below reports whether a ranks strictly below b.
func below(a, b KV) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Key > b.Key
}

func (t *topK) add(key uint64, count uint32) {
	kv := KV{key, count}
	h := t.heap
	if len(h) < t.k {
		h = append(h, kv)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !below(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		t.heap = h
		return
	}
	if len(h) == 0 || !below(h[0], kv) {
		return
	}
	h[0] = kv
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && below(h[c+1], h[c]) {
			c++
		}
		if !below(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sorted returns the kept pairs best first, as a new slice.
func (t *topK) sorted() []KV {
	out := slices.Clone(t.heap)
	if out == nil {
		out = []KV{}
	}
	slices.SortFunc(out, compareKV)
	return out
}

// compareKV orders pairs count descending, then key ascending.
func compareKV(a, b KV) int {
	switch {
	case below(b, a):
		return -1
	case below(a, b):
		return 1
	}
	return 0
}
