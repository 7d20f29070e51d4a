package gpusim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"dedukt/internal/obs"
)

// Device executes kernels under a Config.
type Device struct {
	cfg Config
	// contention is a hashed per-address atomic-op counter (single-row
	// count-min sketch). The max bucket is a deterministic upper bound on
	// the per-address maximum, used for the hotspot roofline term.
	contention []uint64
	arenaNext  uint64
	// reg, when set via Observe, receives per-kernel efficiency counters
	// after every launch.
	reg *obs.Registry
	// scratch pools per-worker launch state (lane recorders and fold
	// buffers) across launches. Multi-round pipelines launch the same
	// kernels dozens of times; without the pool every launch re-grows each
	// lane's access log from nil, which dominated the streamed pipeline's
	// allocation profile.
	scratch sync.Pool
}

// contentionBuckets is the sketch width. Counter-style hot addresses (a few
// hundred buffer tails) essentially never collide at this width, and table
// slots are individually cold, so the bound stays tight. The width is kept
// modest (512 KiB per device) because large simulations instantiate one
// device per simulated rank.
const contentionBuckets = 1 << 16

// NewDevice validates cfg and returns a Device.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{cfg: cfg, contention: make([]uint64, contentionBuckets), arenaNext: 1 << 12}, nil
}

// MustDevice is NewDevice for known-good configs; it panics on error.
func MustDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Observe attaches a metrics registry: every subsequent Launch publishes
// its kernel stats (launches, divergence-adjusted and raw ops, memory
// transactions, atomics) as counters labeled by kernel name. Set before
// launching; a nil registry detaches.
func (d *Device) Observe(reg *obs.Registry) { d.reg = reg }

// publishStats records one launch's stats into the attached registry.
func (d *Device) publishStats(s *KernelStats) {
	if d.reg == nil {
		return
	}
	kernel := obs.L("kernel", s.Name)
	d.reg.Counter("gpusim_kernel_launches_total", "Kernel launches by kernel name.", kernel).Inc()
	d.reg.Counter("gpusim_compute_ops_total", "Divergence-adjusted compute ops (max lane per warp × warp size).", kernel).Add(s.ComputeOps)
	d.reg.Counter("gpusim_raw_compute_ops_total", "Per-lane compute ops before the divergence charge.", kernel).Add(s.RawComputeOps)
	d.reg.Counter("gpusim_mem_transactions_total", "32-byte memory sectors moved after warp coalescing.", kernel).Add(s.MemTransactions)
	d.reg.Counter("gpusim_atomic_ops_total", "Atomic operations issued.", kernel).Add(s.AtomicOps)
}

// Alloc reserves a 256-byte-aligned simulated device address range of the
// given size and returns its base address. Kernels use these addresses when
// recording accesses so coalescing analysis sees realistic layouts.
func (d *Device) Alloc(bytes int64) uint64 {
	if bytes < 0 {
		panic("gpusim: negative allocation")
	}
	size := (uint64(bytes) + 255) &^ 255
	end := atomic.AddUint64(&d.arenaNext, size)
	return end - size
}

// accessKind distinguishes recorded operations.
type accessKind uint8

const (
	accRead accessKind = iota
	accWrite
	accAtomic
)

// access is one recorded operation, 16 bytes so the fold streams through
// compact access logs.
type access struct {
	addr uint64
	size uint32
	kind accessKind
}

// Ctx is the per-thread recorder handed to kernel bodies. It is only valid
// during the call.
type Ctx struct {
	tid      int
	ops      uint64
	accesses []access
}

// TID returns the global thread index.
func (c *Ctx) TID() int { return c.tid }

// Compute records n abstract arithmetic/logic operations.
func (c *Ctx) Compute(n int) { c.ops += uint64(n) }

// Read records a global-memory load of size bytes at addr.
func (c *Ctx) Read(addr uint64, size int) {
	c.accesses = append(c.accesses, access{addr, uint32(size), accRead})
}

// Write records a global-memory store.
func (c *Ctx) Write(addr uint64, size int) {
	c.accesses = append(c.accesses, access{addr, uint32(size), accWrite})
}

// Atomic records an atomic read-modify-write at addr (e.g. atomicAdd on an
// outgoing-buffer tail, or atomicCAS on a hash-table slot).
func (c *Ctx) Atomic(addr uint64, size int) {
	c.accesses = append(c.accesses, access{addr, uint32(size), accAtomic})
}

// LaunchSpec describes kernel geometry.
type LaunchSpec struct {
	// Name labels the kernel in stats.
	Name string
	// Threads is the total logical thread count (grid × block).
	Threads int
	// BlockSize is threads per block; 0 defaults to 256.
	BlockSize int
}

// Launch executes body for every thread of the spec and returns aggregated
// stats. Bodies run with real effects (they may write Go memory; use
// sync/atomic for shared state). Warps execute their lanes sequentially
// inside one goroutine; distinct warps may run on different goroutines, so
// cross-thread coordination other than atomics must not be assumed — the
// same portability rule a real CUDA grid imposes.
func (d *Device) Launch(spec LaunchSpec, body func(tid int, ctx *Ctx)) (KernelStats, error) {
	if spec.Threads < 0 {
		return KernelStats{}, fmt.Errorf("gpusim: negative thread count %d", spec.Threads)
	}
	block := spec.BlockSize
	if block == 0 {
		block = 256
	}
	if block <= 0 || block%d.cfg.WarpSize != 0 {
		return KernelStats{}, fmt.Errorf("gpusim: block size %d not a positive multiple of warp size %d", block, d.cfg.WarpSize)
	}
	stats := KernelStats{
		Name:    spec.Name,
		Threads: spec.Threads,
		Blocks:  (spec.Threads + block - 1) / block,
	}
	ws := d.cfg.WarpSize
	nWarps := (spec.Threads + ws - 1) / ws

	workers := runtime.GOMAXPROCS(0)
	if workers > nWarps {
		workers = nWarps
	}
	if workers < 1 {
		workers = 1
	}
	partials := make([]KernelStats, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[slot] = fmt.Errorf("gpusim: kernel %q panicked: %v", spec.Name, p)
				}
			}()
			sc := d.getScratch(ws)
			defer d.scratch.Put(sc)
			lanes := sc.lanes
			fs := &sc.fs
			for {
				warp := int(next.Add(1)) - 1
				if warp >= nWarps {
					return
				}
				lo := warp * ws
				hi := lo + ws
				if hi > spec.Threads {
					hi = spec.Threads
				}
				for i := range lanes {
					lanes[i].ops = 0
					lanes[i].accesses = lanes[i].accesses[:0]
				}
				for tid := lo; tid < hi; tid++ {
					lane := &lanes[tid-lo]
					lane.tid = tid
					body(tid, lane)
				}
				d.foldWarp(&partials[slot], lanes[:hi-lo], fs)
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return stats, e
		}
	}
	for i := range partials {
		stats.Add(partials[i]) // partials carry zero geometry, only work counters
	}
	// Hotspot bound from the contention sketch.
	var maxBucket uint64
	for _, c := range d.contention {
		if c > maxBucket {
			maxBucket = c
		}
	}
	if maxBucket > stats.MaxAtomicPerAddr {
		stats.MaxAtomicPerAddr = maxBucket
	}
	d.publishStats(&stats)
	return stats, nil
}

// ResetContention clears the hotspot sketch (between kernels whose atomics
// target different structures).
func (d *Device) ResetContention() {
	for i := range d.contention {
		d.contention[i] = 0
	}
}

// foldScratch holds one worker's reusable replay state for foldWarp.
type foldScratch struct {
	order   []int32 // lane indices, longest access log first
	sectors addrSet // distinct sectors of the current warp step
	atomics addrSet // distinct atomic addresses of the current warp step
}

// workerScratch is one launch worker's pooled state: the warp's lane
// recorders (whose access logs keep their grown capacity between launches)
// and the fold buffers.
type workerScratch struct {
	lanes []Ctx
	fs    foldScratch
}

// getScratch takes a worker scratch from the pool, allocating a fresh one
// on first use (or if the warp size ever changed, which it cannot for one
// device).
func (d *Device) getScratch(ws int) *workerScratch {
	if sc, ok := d.scratch.Get().(*workerScratch); ok && len(sc.lanes) == ws {
		return sc
	}
	return &workerScratch{
		lanes: make([]Ctx, ws),
		fs: foldScratch{
			order: make([]int32, 0, ws),
			// One atomic per lane per step fits below half the slots, so
			// the atomic set never grows; the sector set starts with room
			// for two sectors per lane.
			sectors: newAddrSet(4 * ws),
			atomics: newAddrSet(2 * ws),
		},
	}
}

// foldWarp applies lockstep coalescing to one warp's recorded lanes and
// accumulates into st. fs provides reusable scratch owned by the caller.
//
// Every quantity the fold produces is a sum over lanes or a count of
// distinct keys per step, so the order in which a step's lanes are visited
// cannot change the result (DESIGN.md, "Coalescing fold").
func (d *Device) foldWarp(st *KernelStats, lanes []Ctx, fs *foldScratch) {
	// Divergence-adjusted compute: warps execute the union of their lanes'
	// paths, so every lane pays for the longest lane. The same pass orders
	// the lanes by access-log length, longest first, so the lanes still
	// active at any step form a prefix of order.
	var maxOps uint64
	order := fs.order[:0]
	for i := range lanes {
		st.RawComputeOps += lanes[i].ops
		if lanes[i].ops > maxOps {
			maxOps = lanes[i].ops
		}
		n := len(lanes[i].accesses)
		j := len(order)
		order = append(order, int32(i))
		for j > 0 && len(lanes[order[j-1]].accesses) < n {
			order[j] = order[j-1]
			j--
		}
		order[j] = int32(i)
	}
	fs.order = order
	st.ComputeOps += maxOps * uint64(d.cfg.WarpSize)

	// Lockstep memory replay: the i-th access of each lane coalesces into
	// distinct 32-byte sectors. Atomics within one warp step aimed at the
	// same address are warp-aggregated into a single device atomic (the
	// standard nvcc/libcu++ optimization), so both the atomic throughput
	// term and the contention sketch see distinct addresses per step.
	active := len(order)
	for step := 0; ; step++ {
		for active > 0 && len(lanes[order[active-1]].accesses) <= step {
			active-- // lane inactive from this step on (divergence)
		}
		if active == 0 {
			return
		}
		fs.sectors.reset()
		fs.atomics.reset()
		// A step's sectors are nearly monotone across lanes, so most
		// repeats are of the sector just seen; prev filters those before
		// the set lookup. No address maps to sector ^0.
		prev := ^uint64(0)
		for _, li := range order[:active] {
			a := lanes[li].accesses[step]
			st.MemBytesRequested += uint64(a.size)
			first := a.addr / SectorBytes
			last := (a.addr + uint64(a.size) - 1) / SectorBytes
			for s := first; s <= last; s++ {
				if s != prev && fs.sectors.add(s) {
					st.MemTransactions++
				}
				prev = s
			}
			if a.kind == accAtomic && fs.atomics.add(a.addr) {
				st.AtomicOps++
				b := mixAddr(a.addr) % contentionBuckets
				atomic.AddUint64(&d.contention[b], 1)
			}
		}
	}
}

// addrSet is an epoch-stamped open-addressing set of uint64 keys: a slot
// is occupied only if its stamp equals the current epoch, so emptying the
// set between warp steps is one increment rather than a clear. A step
// whose distinct keys would pass half the slots (wide accesses spanning
// many sectors) doubles the set first, so no step can overflow it; the
// grown set is kept for later steps.
type addrSet struct {
	keys  []uint64
	stamp []uint32
	epoch uint32
	n     int  // keys stamped with the current epoch
	shift uint // 64 - log2(len(keys))
}

// newAddrSet returns an empty set with at least slots slots (a power of
// two, minimum 16).
func newAddrSet(slots int) addrSet {
	size := 16
	for size < slots {
		size *= 2
	}
	return addrSet{
		keys:  make([]uint64, size),
		stamp: make([]uint32, size),
		epoch: 1,
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// reset empties the set.
func (s *addrSet) reset() {
	s.n = 0
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps would alias the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
}

// add inserts x and reports whether it was absent.
func (s *addrSet) add(x uint64) bool {
	mask := uint64(len(s.keys) - 1)
	for i := (x * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		if s.stamp[i] != s.epoch {
			if 2*(s.n+1) > len(s.keys) {
				s.grow()
				return s.add(x)
			}
			s.keys[i], s.stamp[i] = x, s.epoch
			s.n++
			return true
		}
		if s.keys[i] == x {
			return false
		}
	}
}

// grow doubles the set, keeping the current step's keys.
func (s *addrSet) grow() {
	old := *s
	*s = newAddrSet(2 * len(old.keys))
	for i, st := range old.stamp {
		if st == old.epoch {
			s.add(old.keys[i])
		}
	}
}

// mixAddr scrambles an address into the sketch index space.
func mixAddr(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
