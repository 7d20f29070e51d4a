package minimizer

import (
	"fmt"

	"dedukt/internal/dna"
)

// Scanner streams (k-mer, minimizer) pairs over a read in O(1) amortized
// time per position on the shared Roller. It is the fast host-side
// alternative to calling Of for every k-mer (which costs O(k−m) per
// position, the cost the GPU kernel pays in registers); tests pin the two
// implementations to identical output.
type Scanner struct {
	enc  *dna.Encoding
	seq  []byte
	next int // next base index to consume
	roll Roller
}

// NewScanner constructs a rolling scanner; it panics on invalid parameters
// (use minimizer.Config.Validate to pre-check user input).
func NewScanner(enc *dna.Encoding, seq []byte, k, m int, ord Ordering) *Scanner {
	s := &Scanner{}
	s.init(enc, seq, k, m, ord)
	return s
}

func (s *Scanner) init(enc *dna.Encoding, seq []byte, k, m int, ord Ordering) {
	if k <= 0 || k > dna.MaxK {
		panic(fmt.Sprintf("minimizer: k=%d outside (0,%d]", k, dna.MaxK))
	}
	if m <= 0 || m > k {
		panic(fmt.Sprintf("minimizer: m=%d outside (0,k=%d]", m, k))
	}
	if ord == nil {
		panic("minimizer: nil ordering")
	}
	s.enc, s.seq, s.next = enc, seq, 0
	s.roll.Init(k, m, ord)
}

// Next returns the next valid k-mer, its minimizer, and its start offset.
// ok is false at the end of the read.
func (s *Scanner) Next() (w, min dna.Kmer, pos int, ok bool) {
	for s.next < len(s.seq) {
		code, valid := s.enc.Encode(s.seq[s.next])
		s.next++
		if !valid {
			s.roll.Break()
			continue
		}
		if s.roll.Push(code) {
			return s.roll.Kmer(), s.roll.Min(), s.next - s.roll.k, true
		}
	}
	return 0, 0, 0, false
}

// ForEachWithMinimizer calls fn for every valid k-mer of seq with its
// minimizer, using the rolling scanner. It does not allocate.
func ForEachWithMinimizer(enc *dna.Encoding, seq []byte, k, m int, ord Ordering, fn func(w, min dna.Kmer, pos int)) {
	var s Scanner
	s.init(enc, seq, k, m, ord)
	for {
		w, min, pos, ok := s.Next()
		if !ok {
			return
		}
		fn(w, min, pos)
	}
}
