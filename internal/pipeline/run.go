package pipeline

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
)

// rankOutcome collects one rank's contribution to the global result.
type rankOutcome struct {
	parse, count time.Duration // modeled compute time
	stage        time.Duration // host↔device staging legs of the exchange
	itemsSent    uint64
	payloadSent  uint64
	counted      uint64
	distinct     uint64
	hist         kcount.Histogram
	top          []kcount.KV
	table        *kcount.Table
	parseOps     uint64
	countOps     uint64
	parseSt      gpusim.KernelStats
	countSt      gpusim.KernelStats
	rounds       int
	incomplete   bool // a round degraded past its retry budget
	ckpts        int  // round checkpoints this seat persisted
	recovered    bool // this seat completed at least one shrink recovery
	deadRanks    []int
	replays      int // shrink recoveries this seat went through
}

// summarize records the rank's spectrum summary from a digest fed every
// counted (key, count) pair of the rank.
func (o *rankOutcome) summarize(dg *kcount.Digest) {
	o.counted = dg.Total()
	o.distinct = dg.Distinct()
	o.hist = dg.Histogram()
	o.top = dg.TopK()
}

// Run executes the configured pipeline over the reads and returns the
// global result. The reads are partitioned across ranks by balanced base
// count (the paper's parallel-I/O assumption, §IV-D).
//
// Failures are structured, never a panic or deadlock: a rank death
// (injected or real) poisons the communicator and surfaces as an error
// joining every rank's failure (see mpisim.Run); a corrupted or dropped
// exchange is retried up to Config.MaxRetries times and, past that budget,
// degrades the run to a partial result with Result.Incomplete set and the
// per-rank damage in Result.Faults.
func Run(cfg Config, reads []fastq.Record) (*Result, error) {
	if err := validateRun(cfg); err != nil {
		return nil, err
	}
	if cfg.Ckpt.Dir != "" {
		return nil, fmt.Errorf("pipeline: checkpointing needs the streaming cursor protocol; use RunStream")
	}
	var destMap []uint16
	if cfg.BalancedPartition {
		destMap = buildBalancedMap(cfg, reads)
	}
	p := cfg.Layout.Ranks()
	parts := fastq.Partition(reads, p)
	sources := make([]chunkSource, p)
	bloomBases := make([]int, p)
	var totalBases uint64
	for r, part := range parts {
		for _, rd := range part {
			bloomBases[r] += len(rd.Seq)
		}
		totalBases += uint64(bloomBases[r])
		sources[r] = &sliceChunker{reads: part, maxBases: cfg.RoundBases}
	}
	spl, err := maybeSpill(cfg)
	if err != nil {
		return nil, err
	}
	res, err := runWorld(cfg, destMap, sources, bloomBases, nil, nil, nil, spl)
	if err != nil {
		return nil, err
	}
	res.InputReads = uint64(len(reads))
	res.InputBases = totalBases
	return res, nil
}

// maybeSpill builds the shared out-of-core spill state when configured.
func maybeSpill(cfg Config) (*spillCtl, error) {
	if cfg.Spill.Dir == "" {
		return nil, nil
	}
	return newSpillCtl(cfg)
}

// validateRun is the config validation shared by Run and RunStream.
func validateRun(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Canonical && cfg.Mode == SupermerMode {
		return fmt.Errorf("pipeline: canonical counting is supported in kmer mode only")
	}
	return nil
}

// runWorld is the engine shared by Run, RunStream and ResumeStream: it
// spins up the simulated world with one chunk producer per rank and
// aggregates the rank outcomes. sources feeds each rank's round loop (a
// preloaded partition for Run, handles on a shared bounded producer for
// the streaming paths); bloomBases, when non-nil, gives each rank's
// expected input bases for singleton-filter sizing (unknown when
// streaming, which is why RunStream rejects FilterSingletons).
//
// seats, when non-nil, is a resumed world (possibly smaller than the
// layout after earlier shrinks); nil means the identity world. ck
// enables periodic checkpointing and rv in-place shrink recovery; with
// rv set, a rank death no longer fails the run — survivors shrink the
// communicator, replay from the last checkpoint, and the dead ranks'
// expected failures are absorbed below.
func runWorld(cfg Config, destMap []uint16, sources []chunkSource, bloomBases []int, seats []*rankSeat, ck *ckptCtl, rv *recoverRT, spl *spillCtl) (*Result, error) {
	nOrig := cfg.Layout.Ranks()
	inj, err := fault.New(cfg.Fault, nOrig)
	if err != nil {
		return nil, err
	}
	outcomes := make([]rankOutcome, nOrig)
	if seats == nil {
		seats = make([]*rankSeat, nOrig)
		for r := range seats {
			seats[r] = identitySeat(r, nOrig)
		}
	}

	start := time.Now()
	opt := mpisim.Options{
		Deadline: cfg.ExchangeDeadline, Obs: cfg.Obs,
		WireTime: cfg.WireTime, WireMsg: cfg.WireMsg,
		RanksPerNode: cfg.Layout.Net.RanksPerNode,
	}
	trace, errs, err := mpisim.RunRanks(len(seats), opt, func(c *mpisim.Comm) error {
		// The seat and source are bound to the starting slot; both stay
		// with this goroutine when a shrink renumbers the communicator.
		seat := seats[c.Rank()]
		src := sources[c.Rank()]
		out := &outcomes[seat.old]
		out.incomplete = seat.degraded
		bases := 0
		if bloomBases != nil {
			bases = bloomBases[c.Rank()]
		}
		var rsp *rankSpill
		if spl != nil {
			rsp = spl.rank(seat.old)
			defer rsp.abort()
		}
		for {
			var err error
			if cfg.Layout.GPU != nil {
				err = runGPURank(cfg, destMap, inj, c, src, seat, ck, rsp, out)
			} else {
				err = runCPURank(cfg, destMap, inj, c, src, bases, seat, ck, rsp, out)
			}
			if err == nil {
				return nil
			}
			if rv == nil || !errors.Is(err, mpisim.ErrPeerDead) {
				return err
			}
			// A peer died mid-run and recovery is enabled: shrink,
			// reload the last checkpoint, replay. Another death during
			// the recovery itself surfaces as ErrPeerDead again and
			// loops into a further shrink — each attempt loses at least
			// one rank, so the loop terminates.
			for {
				rerr := rv.shrinkReload(c, seat, out)
				if rerr == nil {
					break
				}
				if !errors.Is(rerr, mpisim.ErrPeerDead) {
					return rerr
				}
			}
		}
	})
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := absorbRankErrors(seats, outcomes, errs); err != nil {
		return nil, err
	}
	res := aggregate(cfg, trace, outcomes, wall)
	res.Faults = inj.Snapshot()
	if cfg.Obs != nil {
		registerRunMetrics(cfg.Obs.Registry(), res)
		inj.RegisterMetrics(cfg.Obs.Registry())
	}
	return res, nil
}

// absorbRankErrors decides whether the world's per-slot outcomes add up
// to a successful run. Without recovery every failure is fatal
// (RunWithOptions semantics). After a shrink recovery the dead ranks'
// own failures are expected — the survivors completed the full
// computation on their behalf — so a failure is absorbed exactly when
// some seat recovered and the failing slot's original rank is in the
// agreed dead set. Any other failure (or all ranks failing) still fails
// the run.
func absorbRankErrors(seats []*rankSeat, outcomes []rankOutcome, errs []error) error {
	dead := map[int]bool{}
	anyRecovered := false
	for i := range outcomes {
		if outcomes[i].recovered {
			anyRecovered = true
			for _, d := range outcomes[i].deadRanks {
				dead[d] = true
			}
		}
	}
	var joined []error
	for slot, e := range errs {
		if e == nil {
			continue
		}
		if anyRecovered && dead[seats[slot].old] {
			continue
		}
		joined = append(joined, fmt.Errorf("rank %d: %w", seats[slot].old, e))
	}
	return errors.Join(joined...)
}

// registerRunMetrics publishes the run's headline numbers into the shared
// metrics registry so `-metrics-out` and scrapers see the pipeline beside
// the mpisim/gpusim/fault series. Counters accumulate across runs sharing
// one recorder; gauges reflect the latest run.
func registerRunMetrics(reg *obs.Registry, res *Result) {
	reg.Counter("pipeline_items_exchanged_total", "Exchanged units (k-mers or supermers) across all ranks and rounds.").Add(res.ItemsExchanged)
	reg.Counter("pipeline_payload_bytes_total", "Exchanged payload volume including supermer length bytes.").Add(res.PayloadBytes)
	reg.Counter("pipeline_kmers_counted_total", "Counted k-mer instances.").Add(res.TotalKmers)
	reg.Gauge("pipeline_distinct_kmers", "Distinct k-mers in the counted spectrum.").Set(float64(res.DistinctKmers))
	reg.Gauge("pipeline_rounds", "Parse-exchange-count rounds executed.").Set(float64(res.Rounds))
	reg.Gauge("pipeline_load_imbalance", "Max/avg of per-rank counted k-mers (Table III).").Set(res.LoadImbalance())
	incomplete := 0.0
	if res.Incomplete {
		incomplete = 1
	}
	reg.Gauge("pipeline_incomplete", "1 when a round degraded past its retry budget (counts are a lower bound).").Set(incomplete)
	reg.Counter("pipeline_ckpt_rounds_total", "Round checkpoints persisted.").Add(uint64(res.Checkpoints))
	recovered := uint64(0)
	if res.Recovered {
		recovered = 1
	}
	reg.Counter("pipeline_recovery_shrinks_total", "Runs completed through shrink recovery after rank death.").Add(recovered)
	reg.Gauge("pipeline_recovery_dead_ranks", "Ranks lost (and absorbed by survivors) during the latest run.").Set(float64(len(res.DeadRanks)))
	for phase, d := range map[string]time.Duration{
		"parse":    res.Modeled.Parse,
		"exchange": res.Modeled.Exchange,
		"count":    res.Modeled.Count,
	} {
		reg.Gauge("pipeline_phase_seconds", "Summit-projected phase time (bulk-synchronous: slowest rank).", obs.L("phase", phase)).Set(d.Seconds())
	}
}

// gpuRoundState is one parity's pooled round scratch for the GPU rank body:
// the staged base buffer, the kernel packing scratch, the round's send
// buffers (views into the kernel scratch) and its posted exchange. Two of
// these double-buffer the overlapped schedule; the serial schedule just
// alternates between them.
type gpuRoundState struct {
	buf       dna.SeqBuffer
	parse     kernels.ParseScratch
	sup       kernels.SupermerScratch
	sendWords [][]uint64
	sendWire  [][]byte
	routedW   [][]uint64
	routedB   [][]byte
	bytesOut  uint64
	pend      *pendingExchange
	recvWords [][]uint64
	recvWire  [][]byte
	roundRecv uint64
}

// seedAtomicTable preloads checkpointed spectrum slices into a fresh
// atomic table sized for them.
func seedAtomicTable(seed []*kcount.Database, load float64, prob kcount.Probing) (*kcount.AtomicTable, error) {
	n := 1
	for _, db := range seed {
		n += db.Len()
	}
	t := kcount.NewAtomicTable(n, load, prob)
	for _, db := range seed {
		for _, e := range db.Entries {
			if _, _, err := t.Add(e.Key, e.Count); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

func runGPURank(cfg Config, destMap []uint16, inj *fault.Injector, c *mpisim.Comm, src chunkSource, seat *rankSeat, ck *ckptCtl, rsp *rankSpill, out *rankOutcome) error {
	dev := gpusim.MustDevice(*cfg.Layout.GPU)
	if cfg.Obs != nil {
		dev.Observe(cfg.Obs.Registry())
	}
	rec := cfg.Obs
	rank := seat.old
	table, err := seedAtomicTable(seat.seed, cfg.tableLoad(), cfg.Probing)
	if err != nil {
		return err
	}
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	ex := newExchanger(&cfg, c, rank, inj, out)
	var states [2]gpuRoundState

	// Round-start faults fire once per executed round, before its parse.
	start := func(r int) error {
		return killOrStall(inj, rank, r, rec)
	}

	// Stage + parse: pull the round's chunk, build its concatenated base
	// buffer, model its host→device transfer, and run the parse (or
	// supermer) kernel into the parity slot's packing scratch.
	parse := func(r int) (bool, error) {
		st := &states[r%2]
		recs, more, err := src.nextChunk()
		if err != nil {
			return false, err
		}
		st.buf.Reset()
		for _, rd := range recs {
			st.buf.AppendRead(rd.Seq)
		}
		data := st.buf.Data()
		if !cfg.GPUDirect {
			// The input bases bounce through a pinned host staging buffer
			// before the kernel sees them. Under GPUDirect the reads stream
			// straight into device memory, so the leg vanishes entirely —
			// no stage_h2d span, no modeled staging time.
			sp := rec.Begin(rank, r, obs.PhaseStageH2D)
			h2dIn := dev.Config().TransferTime(int64(len(data)))
			out.stage += h2dIn
			sp.End(h2dIn, uint64(len(data)))
		}

		sp := rec.Begin(rank, r, obs.PhaseParse)
		var parseSt gpusim.KernelStats
		// Destinations are always the ORIGINAL world: the key→rank map
		// never changes across shrinks (checkpointed slices stay valid);
		// the seat folds dead destinations onto survivors at post time.
		if cfg.Mode == KmerMode {
			st.sendWords, parseSt, err = kernels.ParseKmers(dev, kernels.ParseConfig{
				Enc: cfg.Enc, K: cfg.K, NumDest: seat.nOrig, Canonical: cfg.Canonical,
			}, data, &st.parse)
		} else {
			st.sendWire, parseSt, err = kernels.BuildSupermers(dev, kernels.SupermerConfig{
				Enc: cfg.Enc, C: cfg.minimizerConfig(), NumDest: seat.nOrig, DestMap: destMap,
			}, data, &st.sup)
		}
		if err != nil {
			sp.End(0, 0)
			return false, err
		}
		kt := dev.Config().KernelTime(&parseSt)
		out.parse += kt
		out.parseOps += parseSt.ComputeOps
		out.parseSt.Add(parseSt)

		var bytesOut, roundSent uint64
		if cfg.Mode == KmerMode {
			for _, part := range st.sendWords {
				roundSent += uint64(len(part))
				bytesOut += 8 * uint64(len(part))
			}
		} else {
			for _, part := range st.sendWire {
				roundSent += uint64(len(part) / wire.Stride())
				bytesOut += uint64(len(part))
			}
		}
		st.bytesOut = bytesOut
		out.itemsSent += roundSent
		out.payloadSent += bytesOut
		sp.End(kt, roundSent)
		return more, nil
	}

	// Post: announce counts (carrying the end-of-stream more flag) and
	// ship the round's framed payloads with nonblocking collectives
	// (errors surface at finish time).
	post := func(r int, more bool) error {
		st := &states[r%2]
		if cfg.Mode == KmerMode {
			st.pend = ex.postWords(r, seat.route(st.sendWords, &st.routedW), more)
		} else {
			st.pend = ex.postWire(r, wire, seat.routeBytes(st.sendWire, &st.routedB), more)
		}
		return nil
	}

	// Finish: complete the exchange (verify, retry, settle) and model the
	// host staging legs unless GPUDirect. The received parts stay in the
	// parity slot for count.
	finish := func(r int) (bool, error) {
		st := &states[r%2]
		pend := st.pend
		st.pend = nil
		var (
			bytesIn  uint64
			incoming int
			anyMore  bool
			err      error
		)
		if cfg.Mode == KmerMode {
			st.recvWords, anyMore, err = ex.finishWords(pend)
			if err != nil {
				return false, err
			}
			for _, part := range st.recvWords {
				bytesIn += 8 * uint64(len(part))
				incoming += len(part)
			}
		} else {
			st.recvWire, anyMore, err = ex.finishWire(pend)
			if err != nil {
				return false, err
			}
			for _, part := range st.recvWire {
				bytesIn += uint64(len(part))
				incoming += len(part) / wire.Stride()
			}
		}
		st.roundRecv = uint64(incoming)
		var stage time.Duration
		if !cfg.GPUDirect {
			stage = dev.Config().TransferTime(int64(st.bytesOut)) + dev.Config().TransferTime(int64(bytesIn))
			out.stage += stage
		}
		pend.sp.End(stage, st.roundRecv)
		return anyMore, nil
	}

	// Count: insert the round's received parts into this rank's table
	// partition in place, growing it between rounds when needed. In spill
	// mode (pass 1) the verified parts are appended to the rank's disk
	// bins instead and the insert is deferred to the per-bin pass below.
	count := func(r int) error {
		st := &states[r%2]
		if rsp != nil {
			sp := rec.Begin(rank, r, obs.PhaseSpill)
			var (
				n   uint64
				err error
			)
			if cfg.Mode == KmerMode {
				n, err = rsp.spillWords(st.recvWords)
			} else {
				n, err = rsp.spillWire(wire, cfg.minimizerConfig(), st.recvWire)
			}
			if err != nil {
				sp.End(0, 0)
				return err
			}
			sp.End(0, n)
			return nil
		}
		incoming := int(st.roundRecv)
		sp := rec.Begin(rank, r, obs.PhaseCount)
		var (
			countSt gpusim.KernelStats
			err     error
		)
		if cfg.Mode == KmerMode {
			table, err = ensureCapacity(table, incoming, cfg.tableLoad(), cfg.Probing)
			if err != nil {
				sp.End(0, 0)
				return err
			}
			countSt, err = kernels.CountKmers(dev, table, st.recvWords)
		} else {
			table, err = ensureCapacity(table, incoming*cfg.Window, cfg.tableLoad(), cfg.Probing)
			if err != nil {
				sp.End(0, 0)
				return err
			}
			countSt, err = kernels.CountSupermers(dev, table, wire, st.recvWire)
		}
		if err != nil {
			sp.End(0, 0)
			return err
		}
		out.count += dev.Config().KernelTime(&countSt)
		out.countOps += countSt.ComputeOps
		out.countSt.Add(countSt)
		sp.End(dev.Config().KernelTime(&countSt), st.roundRecv)
		return nil
	}

	hooks := roundHooks{start: start, parse: parse, post: post, finish: finish, count: count}
	if ck != nil {
		hooks.ckptAt = ck.at
		hooks.ckpt = func(r int) error {
			// table is reassigned by ensureCapacity; snapshot the current
			// one at checkpoint time.
			return ck.write(c, seat, r, kcount.FromTable(table.Snapshot(), cfg.K, ck.flags), out)
		}
	}
	rounds, err := runRounds(cfg.Overlap, seat.base, hooks)
	if err != nil {
		return err
	}
	out.rounds = rounds

	if rsp != nil {
		return gpuCountBins(cfg, dev, wire, rsp, out)
	}
	dg := kcount.NewDigest(topKPerRank)
	table.ForEach(dg.Add)
	out.summarize(dg)
	if cfg.KeepTables {
		out.table = table.Snapshot()
	}
	return nil
}

// gpuCountBins is the GPU engine's spill pass 2: count each bin into a
// fresh working-set table — sized for that bin alone, never the whole
// spectrum slice — with the in-memory path's count kernels.
func gpuCountBins(cfg Config, dev *gpusim.Device, wire kernels.SupermerWire, rsp *rankSpill, out *rankOutcome) error {
	var words []uint64
	return rsp.countBins(out, func(b int, dg *kcount.Digest) (time.Duration, uint64, error) {
		bt := kcount.NewAtomicTable(1, cfg.tableLoad(), cfg.Probing)
		var (
			binItems   uint64
			binModeled time.Duration
		)
		err := rsp.readBin(b, func(payload []byte, items int) error {
			var (
				countSt gpusim.KernelStats
				err     error
			)
			if cfg.Mode == KmerMode {
				if cap(words) < items {
					words = make([]uint64, items)
				}
				words = words[:items]
				for i := range words {
					words[i] = leUint64(payload[8*i:])
				}
				bt, err = ensureCapacity(bt, items, cfg.tableLoad(), cfg.Probing)
				if err != nil {
					return err
				}
				countSt, err = kernels.CountKmers(dev, bt, [][]uint64{words})
			} else {
				bt, err = ensureCapacity(bt, items*cfg.Window, cfg.tableLoad(), cfg.Probing)
				if err != nil {
					return err
				}
				countSt, err = kernels.CountSupermers(dev, bt, wire, [][]byte{payload})
			}
			if err != nil {
				return err
			}
			kt := dev.Config().KernelTime(&countSt)
			out.count += kt
			binModeled += kt
			out.countOps += countSt.ComputeOps
			out.countSt.Add(countSt)
			binItems += uint64(items)
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		bt.ForEach(dg.Add)
		return binModeled, binItems, nil
	})
}

// topKPerRank bounds the per-rank contribution to the global top-k merge.
const topKPerRank = 64

// aggregate folds per-rank outcomes and the communication trace into the
// global Result. Phase times follow the bulk-synchronous rule: a phase ends
// when its slowest rank finishes.
func aggregate(cfg Config, trace []mpisim.TraceEntry, outcomes []rankOutcome, wall time.Duration) *Result {
	res := &Result{
		Name:         fmt.Sprintf("%s/%s", cfg.Layout.Name, cfg.Mode),
		Ranks:        cfg.Layout.Ranks(),
		Nodes:        cfg.Layout.Nodes,
		Mode:         cfg.Mode,
		GPU:          cfg.Layout.GPU != nil,
		Overlap:      cfg.Overlap,
		Wall:         wall,
		Spilled:      cfg.Spill.Dir != "",
		SpillBins:    spillBinsOf(cfg),
		Histogram:    kcount.Histogram{Counts: make(map[uint32]uint64)},
		PerRankKmers: make([]uint64, len(outcomes)),
	}
	var maxParse, maxCount, maxStage time.Duration
	for r := range outcomes {
		o := &outcomes[r]
		if o.parse > maxParse {
			maxParse = o.parse
		}
		if o.count > maxCount {
			maxCount = o.count
		}
		if o.stage > maxStage {
			maxStage = o.stage
		}
		if o.rounds > res.Rounds {
			res.Rounds = o.rounds
		}
		if o.incomplete {
			res.Incomplete = true
		}
		if o.ckpts > res.Checkpoints {
			res.Checkpoints = o.ckpts
		}
		if o.recovered {
			res.Recovered = true
		}
		res.ItemsExchanged += o.itemsSent
		res.PayloadBytes += o.payloadSent
		res.TotalKmers += o.counted
		res.DistinctKmers += o.distinct
		res.PerRankKmers[r] = o.counted
		res.Histogram.Merge(o.hist)
		res.TopKmers = append(res.TopKmers, o.top...)
		res.ParseCompute += o.parseOps
		res.CountCompute += o.countOps
		res.GPUParse.Add(o.parseSt)
		res.GPUCount.Add(o.countSt)
		if cfg.KeepTables {
			res.Tables = append(res.Tables, o.table)
		}
	}
	// Ranks own disjoint k-mer partitions, so the global top-k is a merge
	// of the per-rank top lists.
	sort.Slice(res.TopKmers, func(i, j int) bool {
		if res.TopKmers[i].Count != res.TopKmers[j].Count {
			return res.TopKmers[i].Count > res.TopKmers[j].Count
		}
		return res.TopKmers[i].Key < res.TopKmers[j].Key
	})
	if len(res.TopKmers) > topKPerRank {
		res.TopKmers = res.TopKmers[:topKPerRank]
	}
	res.DeadRanks = mergeDead(outcomes)
	res.Modeled.Parse = maxParse
	res.Modeled.Count = maxCount

	var fabric time.Duration
	for _, e := range trace {
		if e.Bytes == nil {
			continue
		}
		t := cfg.Layout.Net.CollectiveTime(e.Bytes)
		fabric += t
		if e.Op == "alltoallv" {
			res.AlltoallvTime += t
			vs := cfg.Layout.Net.Volumes(e.Bytes)
			res.Volume.TotalBytes += vs.TotalBytes
			res.Volume.FabricBytes += vs.FabricBytes
			if vs.MaxNodeBytes > res.Volume.MaxNodeBytes {
				res.Volume.MaxNodeBytes = vs.MaxNodeBytes
			}
		}
	}
	res.Modeled.Exchange = maxStage + fabric
	return res
}
