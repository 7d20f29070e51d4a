package kernels

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// goldenWords is a fixed multi-block payload for the word-frame tests.
func goldenWords(n int) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		words[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	return words
}

// TestWordsCRCMatchesByteImage: the blockwise checksum equals CRC32-C of
// the whole little-endian byte image at every block boundary case.
func TestWordsCRCMatchesByteImage(t *testing.T) {
	all := goldenWords(3*crcBlockWords + 7)
	for _, n := range []int{0, 1, crcBlockWords - 1, crcBlockWords, crcBlockWords + 1, 3*crcBlockWords + 7} {
		words := all[:n]
		img := make([]byte, 0, 8*n)
		for _, w := range words {
			img = binary.LittleEndian.AppendUint64(img, w)
		}
		if got, want := wordsCRC(words), crc32.Checksum(img, crcTable); got != want {
			t.Errorf("%d words: wordsCRC %08x, byte-image CRC %08x", n, got, want)
		}
	}
}

// TestFrameWordsPinned locks the word-frame wire format: header word =
// CRC32-C of the payload's LE bytes << 32 | item count.
func TestFrameWordsPinned(t *testing.T) {
	words := goldenWords(1031)
	for _, tc := range []struct {
		n    int
		want uint64
	}{{1031, 0xa693288900000407}, {3, 0x4624aa6300000003}} {
		if got := FrameWords(words[:tc.n])[0]; got != tc.want {
			t.Errorf("%d words: frame header %#x, want %#x", tc.n, got, tc.want)
		}
	}
}

// TestWordFramesDoNotAllocate: framing into a presized arena and
// unframing are allocation-free on the exchange hot path.
func TestWordFramesDoNotAllocate(t *testing.T) {
	words := goldenWords(3*crcBlockWords + 7)
	dst := make([]uint64, 0, 1+len(words))
	frame := FrameWords(words)
	if n := testing.AllocsPerRun(100, func() {
		dst = AppendFrameWords(dst[:0], words)
	}); n != 0 {
		t.Errorf("AppendFrameWords into a presized dst: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := UnframeWords(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("UnframeWords: %v allocs/op", n)
	}
}

// BenchmarkFrameWords frames and verifies one round's worth of k-mer
// words for one destination.
func BenchmarkFrameWords(b *testing.B) {
	words := goldenWords(1 << 14)
	dst := make([]uint64, 0, 1+len(words))
	b.SetBytes(int64(8 * len(words)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendFrameWords(dst[:0], words)
		if _, err := UnframeWords(dst); err != nil {
			b.Fatal(err)
		}
	}
}
