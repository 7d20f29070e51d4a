package minimizer

import "dedukt/internal/dna"

// ringCap is the capacity of the Roller's candidate ring: a power of two
// above the most candidates it ever holds, k−m+2 ≤ dna.MaxK+1 (the k−m+1
// m-mers of the current k-mer plus the one just pushed, before eviction).
const ringCap = 64

// Roller is the rolling minimizer shared by the GPU supermer kernel, the
// reference builders and Scanner. Fed one base at a time, it keeps the
// current k-mer and, in a monotonic deque of m-mer candidates, that
// k-mer's minimizer: the classic sliding-window minimum, O(1) amortized
// per base instead of Of's O(k−m) rescan per k-mer.
//
// Invariant: after a Push that completes a k-mer, the deque holds exactly
// the m-mers of that k-mer that no later m-mer of it beats, by increasing
// start offset and non-decreasing rank. Its front is therefore the
// lowest-ranked m-mer, leftmost among equal ranks — the same m-mer Of
// returns. The deque lives in a fixed array ring, so rolling never
// allocates.
type Roller struct {
	k, m   int
	ord    Ordering
	kw, mw dna.Kmer // rolling k-mer and m-mer
	valid  int      // consecutive valid bases pushed since the last Break
	at     int      // bases pushed since Init; positions count from here
	head   int      // ring index of the deque front
	n      int      // deque length
	ring   [ringCap]cand
}

// cand is one m-mer candidate of the deque. The m-mer itself is not kept:
// it is a sub-word of the current k-mer, recovered by Min.
type cand struct {
	pos  int // start offset of the m-mer, in pushed bases
	rank uint64
}

// Init prepares r for a new sequence. The parameters must satisfy
// 0 < m ≤ k ≤ dna.MaxK and ord != nil (Config.Validate checks them).
func (r *Roller) Init(k, m int, ord Ordering) {
	r.k, r.m, r.ord = k, m, ord
	r.at = 0
	r.Break()
}

// Break drops the current k-mer and every candidate: the next k-mer starts
// after an invalid base.
func (r *Roller) Break() {
	r.valid, r.head, r.n = 0, 0, 0
}

// Push appends one base and reports whether it completed a k-mer, whose
// value and minimizer Kmer and Min then return.
func (r *Roller) Push(code dna.Code) bool {
	r.kw = r.kw.Append(r.k, code)
	r.mw = r.mw.Append(r.m, code)
	r.at++
	r.valid++
	if r.valid < r.m {
		return false
	}
	c := cand{pos: r.at - r.m, rank: r.ord.Rank(r.mw, r.m)}
	// Strictly-greater pop keeps the leftmost of equal ranks in front —
	// Of's tie-break.
	for r.n > 0 && r.ring[(r.head+r.n-1)&(ringCap-1)].rank > c.rank {
		r.n--
	}
	r.ring[(r.head+r.n)&(ringCap-1)] = c
	r.n++
	if r.valid < r.k {
		return false
	}
	// Evict m-mers that start before the k-mer; the one just pushed
	// starts inside it, so the deque never empties.
	for lo := r.at - r.k; r.ring[r.head].pos < lo; r.n-- {
		r.head = (r.head + 1) & (ringCap - 1)
	}
	return true
}

// Kmer returns the k-mer completed by the last Push.
func (r *Roller) Kmer() dna.Kmer { return r.kw }

// Min returns the minimizer of the k-mer completed by the last Push.
func (r *Roller) Min() dna.Kmer {
	// The front m-mer ends r.at-pos-m bases before the k-mer's last base.
	shift := 2 * uint(r.at-r.ring[r.head].pos-r.m)
	return (r.kw >> shift) & dna.KmerMask(r.m)
}
