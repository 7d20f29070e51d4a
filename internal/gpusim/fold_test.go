package gpusim

import (
	"math/rand"
	"slices"
	"testing"
)

// refFoldWarp is the sort-based reference fold: per warp step it gathers
// every active lane's sectors and atomic addresses, sorts them, and counts
// distinct values. It is the specification the streaming foldWarp must
// match bit for bit.
func refFoldWarp(d *Device, st *KernelStats, lanes []Ctx) {
	var maxOps uint64
	maxAcc := 0
	for i := range lanes {
		st.RawComputeOps += lanes[i].ops
		maxOps = max(maxOps, lanes[i].ops)
		maxAcc = max(maxAcc, len(lanes[i].accesses))
	}
	st.ComputeOps += maxOps * uint64(d.cfg.WarpSize)
	for step := 0; step < maxAcc; step++ {
		var sectors, atomics []uint64
		for i := range lanes {
			if step >= len(lanes[i].accesses) {
				continue
			}
			a := lanes[i].accesses[step]
			st.MemBytesRequested += uint64(a.size)
			first := a.addr / SectorBytes
			last := (a.addr + uint64(a.size) - 1) / SectorBytes
			for s := first; s <= last; s++ {
				sectors = append(sectors, s)
			}
			if a.kind == accAtomic {
				atomics = append(atomics, a.addr)
			}
		}
		slices.Sort(atomics)
		for i, addr := range atomics {
			if i > 0 && addr == atomics[i-1] {
				continue
			}
			st.AtomicOps++
			d.contention[mixAddr(addr)%contentionBuckets]++
		}
		slices.Sort(sectors)
		st.MemTransactions += uint64(len(slices.Compact(sectors)))
	}
}

// foldBoth folds the same warps with the streaming fold (through one
// reused scratch, as a launch worker does) and with the reference, on
// fresh devices, and fails on any difference in the stats or the
// contention sketch.
func foldBoth(t *testing.T, warps [][]Ctx) {
	t.Helper()
	got, want := MustDevice(V100()), MustDevice(V100())
	sc := got.getScratch(got.cfg.WarpSize)
	var gs, ws KernelStats
	for _, lanes := range warps {
		got.foldWarp(&gs, lanes, &sc.fs)
		refFoldWarp(want, &ws, lanes)
	}
	if gs != ws {
		t.Fatalf("stats differ:\n got %+v\nwant %+v", gs, ws)
	}
	if !slices.Equal(got.contention, want.contention) {
		t.Fatal("contention sketches differ")
	}
}

// sizeClasses mixes zero-size, sub-sector, sector-straddling and wide
// multi-sector accesses; the 1-4 KiB ones overflow the initial sector set.
var sizeClasses = []uint32{0, 1, 4, 8, 9, 12, 16, 31, 32, 33, 64, 100, 256, 1024, 4096}

// randomWarp builds a warp of 1..WarpSize lanes with divergent access-log
// lengths (including empty lanes) over a small address range, so sectors
// and atomic addresses repeat within a step.
func randomWarp(rng *rand.Rand, ws int) []Ctx {
	lanes := make([]Ctx, 1+rng.Intn(ws))
	span := uint64(64 << rng.Intn(12))
	maxLen := rng.Intn(12)
	for i := range lanes {
		lanes[i].ops = uint64(rng.Intn(100))
		n := rng.Intn(maxLen + 1)
		for j := 0; j < n; j++ {
			a := access{
				kind: accessKind(rng.Intn(3)),
				addr: 4096 + uint64(rng.Int63n(int64(span))),
				size: sizeClasses[rng.Intn(len(sizeClasses))],
			}
			if a.kind == accAtomic {
				a.size = 4 << rng.Intn(2)
			}
			lanes[i].accesses = append(lanes[i].accesses, a)
		}
	}
	return lanes
}

func TestFoldWarpMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		warps := make([][]Ctx, 1+rng.Intn(8))
		for i := range warps {
			warps[i] = randomWarp(rng, 32)
		}
		foldBoth(t, warps)
	}
}

func TestFoldWarpOverflowingStep(t *testing.T) {
	// 32 lanes each reading 1 KiB at distinct addresses: 1,024 distinct
	// sectors in one step, far past the initial set, followed by a narrow
	// warp that must not see the grown set's stale keys.
	wide := make([]Ctx, 32)
	for i := range wide {
		wide[i].accesses = []access{{4096 + uint64(i)*1024, 1024, accRead}, {4096, 4, accAtomic}}
	}
	narrow := make([]Ctx, 32)
	for i := range narrow {
		narrow[i].accesses = []access{{4096 + uint64(i)*4, 4, accRead}}
	}
	foldBoth(t, [][]Ctx{wide, narrow, wide})
}

func TestAddrSetEpochWrap(t *testing.T) {
	s := newAddrSet(16)
	s.epoch = ^uint32(0) - 1
	for round := 0; round < 4; round++ {
		s.reset()
		for x := uint64(0); x < 40; x++ {
			if !s.add(x) {
				t.Fatalf("round %d: fresh key %d reported present", round, x)
			}
			if s.add(x) {
				t.Fatalf("round %d: repeated key %d reported absent", round, x)
			}
		}
	}
}

// FuzzFoldWarp decodes the input into one warp's access logs — five bytes
// per access: lane, kind and size class, two address bytes, ops — and
// checks the streaming fold against the reference.
func FuzzFoldWarp(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0, 0x22, 1, 0, 5, 1, 0x22, 2, 0, 5, 2, 0x23, 3, 0, 5})
	f.Add([]byte{0, 0x0d, 0, 0, 1, 1, 0x0d, 0, 4, 1, 2, 0x0d, 0, 8, 1, 3, 0x0d, 0, 12, 1})
	f.Add([]byte{5, 0x02, 7, 7, 0, 5, 0x02, 7, 7, 0, 31, 0x00, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		lanes := make([]Ctx, 32)
		for ; len(data) >= 5; data = data[5:] {
			lane := &lanes[int(data[0])%len(lanes)]
			a := access{
				kind: accessKind(data[1] % 3),
				addr: 4096 + (uint64(data[2]) | uint64(data[3])<<8),
				size: sizeClasses[int(data[1]>>2)%len(sizeClasses)],
			}
			lane.accesses = append(lane.accesses, a)
			lane.ops += uint64(data[4])
		}
		foldBoth(t, [][]Ctx{lanes})
	})
}
