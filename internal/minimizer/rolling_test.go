package minimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/kmer"
)

// testOrderings is one instance of each ordering.
func testOrderings() []Ordering {
	return []Ordering{Value{}, NewKMC2(&dna.Random), Hashed{Seed: 9}}
}

// ringEdges are the (k, m) shapes at the rolling deque's extremes: one
// candidate per k-mer (m = k, including k = 1 and k = 32) and the most
// candidates any k-mer has (k = 32, m = 1), plus the paper's point.
var ringEdges = [][2]int{{1, 1}, {17, 17}, {32, 32}, {32, 1}, {31, 2}, {17, 7}}

func TestScannerRingEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	// Low-entropy reads make long runs of equal ranks, the tie-break's
	// worst case; N bases reset the roller mid-read.
	reads := [][]byte{randomRead(rng, 400, 0.02), []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAANAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAACAAAAAA")}
	for _, ord := range testOrderings() {
		for _, e := range ringEdges {
			k, m := e[0], e[1]
			for ri, seq := range reads {
				n := 0
				var positions []int
				kmer.ForEach(&dna.Random, seq, k, func(_ dna.Kmer, pos int) { positions = append(positions, pos) })
				ForEachWithMinimizer(&dna.Random, seq, k, m, ord, func(w, min dna.Kmer, pos int) {
					if n >= len(positions) || pos != positions[n] {
						t.Fatalf("%s k=%d m=%d read %d: k-mer %d at %d, want the scan's positions", ord.Name(), k, m, ri, n, pos)
					}
					if want := Of(w, k, m, ord); min != want {
						t.Fatalf("%s k=%d m=%d read %d pos %d: minimizer %x, Of says %x", ord.Name(), k, m, ri, pos, min, want)
					}
					n++
				})
				if n != len(positions) {
					t.Fatalf("%s k=%d m=%d read %d: %d k-mers, want %d", ord.Name(), k, m, ri, n, len(positions))
				}
			}
		}
	}
}

func TestScannerAllocationFree(t *testing.T) {
	seq := benchRead(4 << 10)
	for _, ord := range testOrderings() {
		n := 0
		allocs := testing.AllocsPerRun(20, func() {
			ForEachWithMinimizer(&dna.Random, seq, 17, 7, ord, func(_, _ dna.Kmer, _ int) { n++ })
		})
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocs per scan, want 0", ord.Name(), allocs)
		}
		if n == 0 {
			t.Fatal("no k-mers scanned")
		}
	}
}

// refSupermers is the definition the builders must meet, computed with
// Of on every k-mer: runs of consecutive k-mer positions sharing a
// minimizer, cut at invalid bases and (windowed) at multiples of the
// window.
func refSupermers(seq []byte, c Config, windowed bool) []string {
	var out []string
	start, last, nk := -1, -2, 0
	var cur dna.Kmer
	flush := func() {
		if nk > 0 {
			out = append(out, fmt.Sprintf("%s/%d/%x", seq[start:last+c.K], nk, cur))
		}
	}
	kmer.ForEach(&dna.Random, seq, c.K, func(w dna.Kmer, pos int) {
		min := Of(w, c.K, c.M, c.Ord)
		same := pos == last+1 && min == cur && (!windowed || pos/c.Window == start/c.Window)
		if !same {
			flush()
			start, cur, nk = pos, min, 0
		}
		nk++
		last = pos
	})
	flush()
	return out
}

func TestBuildersMatchOfReference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 90; trial++ {
		ord := testOrderings()[trial%3]
		k, m := ringEdges[trial%len(ringEdges)][0], ringEdges[trial%len(ringEdges)][1]
		if trial >= 2*len(ringEdges) {
			k = 1 + rng.Intn(dna.MaxK)
			m = 1 + rng.Intn(k)
		}
		c := Config{K: k, M: m, Window: 1 + rng.Intn(20), Ord: ord}
		seq := randomRead(rng, 50+rng.Intn(300), 0.03)
		for _, windowed := range []bool{false, true} {
			want := refSupermers(seq, c, windowed)
			var got []string
			for _, s := range collectSeq(t, &dna.Random, seq, c, windowed) {
				got = append(got, fmt.Sprintf("%s/%d/%x", s.Seq.String(&dna.Random), s.NKmers, s.Min))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d (%s k=%d m=%d w=%d windowed=%v):\n got %v\nwant %v",
					trial, ord.Name(), k, m, c.Window, windowed, got, want)
			}
		}
	}
}

// FuzzRollingMinimizer checks the Roller, through Scanner and both
// builders, against Of for fuzz-derived reads, k, m and ordering.
func FuzzRollingMinimizer(f *testing.F) {
	f.Add([]byte("GATTACAGATTACAGATTACA"), uint8(17), uint8(7), uint8(0), uint8(15))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(32), uint8(1), uint8(1), uint8(3))
	f.Add([]byte("ACGTNACGTACGTTTTTGGGGNNCCCCAAAAACGT"), uint8(5), uint8(5), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, mRaw, oRaw, wRaw uint8) {
		k := int(kRaw)%dna.MaxK + 1
		m := int(mRaw)%k + 1
		c := Config{K: k, M: m, Window: int(wRaw)%40 + 1, Ord: testOrderings()[int(oRaw)%3]}
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = "ACGTACGTACGTACGN"[b&15]
		}
		ForEachWithMinimizer(&dna.Random, seq, k, m, c.Ord, func(w, min dna.Kmer, pos int) {
			if want := Of(w, k, m, c.Ord); min != want {
				t.Fatalf("pos %d: rolling minimizer %x, Of %x", pos, min, want)
			}
		})
		for _, windowed := range []bool{false, true} {
			want := refSupermers(seq, c, windowed)
			var got []string
			for _, s := range collectSeq(t, &dna.Random, seq, c, windowed) {
				got = append(got, fmt.Sprintf("%s/%d/%x", s.Seq.String(&dna.Random), s.NKmers, s.Min))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("windowed=%v:\n got %v\nwant %v", windowed, got, want)
			}
		}
	})
}
