package minimizer

import (
	"fmt"

	"dedukt/internal/dna"
)

// Supermer is a contiguous run of bases whose constituent k-mers all share
// one minimizer (§IV-A). A supermer containing n k-mers spans n+k-1 bases.
type Supermer struct {
	// Seq is the 2-bit-packed base sequence of the supermer.
	Seq dna.PackedSeq
	// Min is the shared minimizer of every k-mer in the supermer; it
	// determines the destination processor (Alg. 2 line 7).
	Min dna.Kmer
	// NKmers is the number of k-mers packed inside (the paper's per-supermer
	// length byte encodes this, §IV-B).
	NKmers int
}

// Len returns the supermer length in bases for k-mer length k.
func (s *Supermer) Len(k int) int { return s.NKmers + k - 1 }

// Kmers appends the constituent k-mers to dst, in read order — the
// receiving-side extraction of Alg. 2 (COUNTKMER).
func (s *Supermer) Kmers(dst []dna.Kmer, k int) []dna.Kmer {
	for i := 0; i < s.NKmers; i++ {
		dst = append(dst, s.Seq.Kmer(i, k))
	}
	return dst
}

// Config bundles the supermer parameters of a run.
type Config struct {
	// K is the k-mer length (the paper uses 17).
	K int
	// M is the minimizer length (the paper evaluates 7 and 9).
	M int
	// Window is the number of consecutive k-mer start positions one GPU
	// thread owns (§IV-B); a supermer never crosses a window boundary, so
	// its length is at most Window+K-1 bases. The paper sets Window=15 so
	// every supermer fits one 64-bit word (15+17-1 = 31 ≤ 32 bases).
	Window int
	// Ord is the minimizer ordering.
	Ord Ordering
}

// Validate checks parameter consistency.
func (c Config) Validate() error {
	if c.K <= 0 || c.K > dna.MaxK {
		return fmt.Errorf("minimizer: k=%d outside (0,%d]", c.K, dna.MaxK)
	}
	if c.M <= 0 || c.M > c.K {
		return fmt.Errorf("minimizer: m=%d outside (0,k=%d]", c.M, c.K)
	}
	if c.Window <= 0 {
		return fmt.Errorf("minimizer: window=%d must be positive", c.Window)
	}
	if c.Ord == nil {
		return fmt.Errorf("minimizer: nil ordering")
	}
	return nil
}

// MaxSupermerBases returns the longest supermer the windowed builder can
// emit: Window k-mer positions spanning Window+K-1 bases.
func (c Config) MaxSupermerBases() int { return c.Window + c.K - 1 }

// DefaultConfig returns the paper's operating point: k=17, m=7, window=15,
// value ordering (paired with the dna.Random encoding).
func DefaultConfig() Config {
	return Config{K: 17, M: 7, Window: 15, Ord: Value{}}
}

// BuildSequential constructs maximal supermers of a read: the window-free
// reference algorithm, extending each supermer while consecutive k-mers
// share a minimizer. Invalid bases (N, separators) terminate the current
// supermer, and k-mer windows containing them are skipped.
//
// The GPU-style windowed builder (BuildWindowed) must produce supermers
// whose k-mer multiset equals this builder's output — windows only split
// runs, never move k-mers between minimizers.
func BuildSequential(enc *dna.Encoding, seq []byte, c Config, emit func(Supermer)) error {
	if err := c.Validate(); err != nil {
		return err
	}
	var b builder
	b.init(enc, seq, c)
	for b.nextValidKmer() {
		if b.contiguous() && b.min == b.curMin {
			b.extend()
		} else {
			b.flush(emit)
			b.start()
		}
	}
	b.flush(emit)
	return nil
}

// BuildWindowed constructs supermers exactly as the GPU kernel does
// (Alg. 2): the read's k-mer start positions are cut into chunks of
// c.Window, each processed independently, so no supermer crosses a chunk
// boundary and every supermer fits c.MaxSupermerBases() bases. One simulated
// GPU thread owns one window (§IV-B).
func BuildWindowed(enc *dna.Encoding, seq []byte, c Config, emit func(Supermer)) error {
	if err := c.Validate(); err != nil {
		return err
	}
	var b builder
	b.init(enc, seq, c)
	for b.nextValidKmer() {
		sameWindow := b.pos/c.Window == b.openWindow
		if b.contiguous() && sameWindow && b.min == b.curMin {
			b.extend()
		} else {
			b.flush(emit)
			b.start()
		}
	}
	b.flush(emit)
	return nil
}

// builder holds the shared scanning state of the two construction modes.
type builder struct {
	enc *dna.Encoding
	seq []byte
	c   Config

	// Rolling scan state.
	next   int      // next base index to consume
	roll   Roller   // rolling k-mer and minimizer
	pos    int      // start position of the current k-mer (valid after nextValidKmer)
	curMin dna.Kmer // minimizer of the current k-mer

	// Current supermer state.
	open       bool
	start0     int // base offset of the supermer's first base
	min        dna.Kmer
	nk         int
	lastPos    int // start position of the most recent k-mer in the supermer
	openWindow int // window index (pos/Window) that opened the supermer
}

// init prepares a zero builder; builders live on the caller's stack, so a
// build allocates only the supermers it emits.
func (b *builder) init(enc *dna.Encoding, seq []byte, c Config) {
	b.enc, b.seq, b.c, b.lastPos = enc, seq, c, -2
	b.roll.Init(c.K, c.M, c.Ord)
}

// contiguous reports whether the current k-mer directly follows the last
// k-mer appended to the open supermer. A gap (caused by an invalid base
// between them) must terminate the supermer even if the minimizer matches,
// because the intervening bases cannot be represented in the packed run.
func (b *builder) contiguous() bool { return b.open && b.pos == b.lastPos+1 }

// nextValidKmer advances to the next k-mer window containing only valid
// bases, updating pos and curMin. It also terminates any open supermer when
// an invalid base is crossed (contiguity would be broken).
func (b *builder) nextValidKmer() bool {
	for b.next < len(b.seq) {
		code, ok := b.enc.Encode(b.seq[b.next])
		b.next++
		if !ok {
			b.roll.Break()
			continue
		}
		if b.roll.Push(code) {
			b.pos = b.next - b.c.K
			b.curMin = b.roll.Min()
			return true
		}
	}
	return false
}

func (b *builder) start() {
	b.open = true
	b.start0 = b.pos
	b.min = b.curMin
	b.nk = 1
	b.lastPos = b.pos
	b.openWindow = b.pos / b.c.Window
}

func (b *builder) extend() {
	b.nk++
	b.lastPos = b.pos
}

func (b *builder) flush(emit func(Supermer)) {
	if !b.open {
		return
	}
	nBases := b.nk + b.c.K - 1
	s := Supermer{Min: b.min, NKmers: b.nk, Seq: dna.NewPackedSeq(nBases)}
	for i := b.start0; i < b.start0+nBases; i++ {
		s.Seq.Append(b.enc.MustEncode(b.seq[i]))
	}
	emit(s)
	b.open = false
}

// SupermerStats summarizes a supermer decomposition.
type SupermerStats struct {
	NSupermers  int
	NKmers      int
	TotalBases  int // Σ supermer lengths — the communicated payload
	MaxLenBases int
}

// Collect runs the windowed builder over many reads and accumulates both the
// supermers (if keep is non-nil) and summary statistics.
func Collect(enc *dna.Encoding, reads [][]byte, c Config, keep func(Supermer)) (SupermerStats, error) {
	var st SupermerStats
	for _, r := range reads {
		err := BuildWindowed(enc, r, c, func(s Supermer) {
			st.NSupermers++
			st.NKmers += s.NKmers
			l := s.Len(c.K)
			st.TotalBases += l
			if l > st.MaxLenBases {
				st.MaxLenBases = l
			}
			if keep != nil {
				keep(s)
			}
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// AvgLen returns the average supermer length in bases (the paper's s).
func (st SupermerStats) AvgLen() float64 {
	if st.NSupermers == 0 {
		return 0
	}
	return float64(st.TotalBases) / float64(st.NSupermers)
}

// KmerModeBases returns the bases that k-mer mode would communicate for the
// same k-mer multiset: NKmers × k (§IV-A's (L-k+1)·k term).
func (st SupermerStats) KmerModeBases(k int) int { return st.NKmers * k }

// Reduction returns the communication-volume reduction factor of supermers
// over k-mers in bases (the paper's headline ≈4× at k=17, w=15, m=7).
func (st SupermerStats) Reduction(k int) float64 {
	if st.TotalBases == 0 {
		return 0
	}
	return float64(st.KmerModeBases(k)) / float64(st.TotalBases)
}
