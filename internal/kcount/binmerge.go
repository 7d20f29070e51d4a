package kcount

// BinAccumulator folds per-bin spectra into one rank-level spectrum for
// the out-of-core counting path (DESIGN.md §16). The spill bins
// partition the rank's key space — every distinct key lives in exactly
// one bin — so totals and distinct counts add, histogram classes add,
// and one Digest fed every bin's pairs sees exactly the pairs one table
// over the whole slice would hold. That disjointness is what makes the
// fold bit-identical to counting the whole slice in one table.
type BinAccumulator struct {
	Digest
}

// NewBinAccumulator builds an empty accumulator keeping the top topK
// keys across bins.
func NewBinAccumulator(topK int) *BinAccumulator {
	return &BinAccumulator{Digest{top: newTopK(topK, 0)}}
}

// AddTable folds one bin's counted table in. A nil or empty table is a
// valid empty bin and contributes nothing.
func (a *BinAccumulator) AddTable(t *Table) {
	if t != nil {
		t.ForEach(a.Add)
	}
}
