package pipeline

import (
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fault"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/minimizer"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
)

// cpuRoundState is one parity's pooled round scratch for the CPU rank body:
// the staged base buffer, the round's per-destination send vectors (rows
// truncated and reused across rounds of the same parity) and its posted
// exchange.
type cpuRoundState struct {
	buf       dna.SeqBuffer
	sendWords [][]uint64
	sendWire  [][]byte
	routedW   [][]uint64
	routedB   [][]byte
	pend      *pendingExchange
	recvWords [][]uint64
	recvWire  [][]byte
	roundRecv uint64
}

// runCPURank executes the scalar baseline (Alg. 1) or the CPU-supermer
// ablation for one rank, metering abstract work with the same constants the
// GPU kernels use and converting it to Power9 time via the layout's
// CPUModel.
func runCPURank(cfg Config, destMap []uint16, inj *fault.Injector, c *mpisim.Comm, src chunkSource, bloomBases int, seat *rankSeat, ck *ckptCtl, rsp *rankSpill, out *rankOutcome) error {
	model := *cfg.Layout.CPU
	seedLen := 0
	for _, db := range seat.seed {
		seedLen += db.Len()
	}
	table := kcount.NewTable(seedLen+1, cfg.Probing)
	for _, db := range seat.seed {
		for _, e := range db.Entries {
			table.Add(e.Key, e.Count)
		}
	}
	var bloom *kcount.Bloom
	if cfg.FilterSingletons {
		fp := cfg.FilterFP
		if fp == 0 {
			fp = 0.01
		}
		// Size for this rank's expected distinct arrivals: its share of
		// the partition's k-mers is bounded by its share of the input
		// (bloomBases — known up front only on the in-memory path, which
		// is why RunStream rejects the filter).
		var err error
		bloom, err = kcount.NewBloom(bloomBases+1, fp)
		if err != nil {
			return err
		}
	}
	rec := cfg.Obs
	rank := seat.old
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	ex := newExchanger(&cfg, c, rank, inj, out)
	var states [2]cpuRoundState

	// Round-start faults fire once per executed round, before its parse.
	start := func(r int) error {
		return killOrStall(inj, rank, r, rec)
	}

	// Parse & process the round's chunk into the parity slot's send
	// vectors.
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

		sp := rec.Begin(rank, r, obs.PhaseParse)
		var meter kernels.WorkMeter
		// Destinations are always the ORIGINAL world (see runGPURank).
		if cfg.Mode == KmerMode {
			st.sendWords, meter = cpuParseKmers(cfg, seat.nOrig, data, st.sendWords)
		} else {
			st.sendWire, meter, err = cpuBuildSupermers(cfg, destMap, seat.nOrig, data, st.sendWire)
			if err != nil {
				sp.End(0, 0)
				return false, err
			}
		}
		parseModeled := model.RankTimeLifted(meter.Ops, meter.Bytes, meter.Items, cfg.CPULoadLift)
		out.parse += parseModeled
		out.parseOps += meter.Ops

		var roundSent uint64
		if cfg.Mode == KmerMode {
			for _, part := range st.sendWords {
				roundSent += uint64(len(part))
				out.payloadSent += 8 * uint64(len(part))
			}
		} else {
			for _, part := range st.sendWire {
				roundSent += uint64(len(part) / wire.Stride())
				out.payloadSent += uint64(len(part))
			}
		}
		out.itemsSent += roundSent
		sp.End(parseModeled, roundSent)
		return more, nil
	}

	// Post the round's exchange with nonblocking collectives, carrying the
	// end-of-stream more flag on the announcement.
	post := func(r int, more bool) error {
		st := &states[r%2]
		if cfg.Mode == KmerMode {
			st.pend = ex.postWords(r, seat.route(st.sendWords, &st.routedW), more)
		} else {
			st.pend = ex.postWire(r, wire, seat.routeBytes(st.sendWire, &st.routedB), more)
		}
		return nil
	}

	// Complete the exchange; the received parts stay in the parity slot for
	// count (no staging legs on the CPU pipeline).
	finish := func(r int) (bool, error) {
		st := &states[r%2]
		pend := st.pend
		st.pend = nil
		st.roundRecv = 0
		var (
			anyMore bool
			err     error
		)
		if cfg.Mode == KmerMode {
			st.recvWords, anyMore, err = ex.finishWords(pend)
			if err != nil {
				return false, err
			}
			for _, part := range st.recvWords {
				st.roundRecv += uint64(len(part))
			}
		} else {
			st.recvWire, anyMore, err = ex.finishWire(pend)
			if err != nil {
				return false, err
			}
			for _, part := range st.recvWire {
				st.roundRecv += uint64(len(part) / wire.Stride())
			}
		}
		pend.sp.End(0, st.roundRecv)
		return anyMore, nil
	}

	// Count the received parts into the persistent per-rank table in place.
	// In spill mode (pass 1) the verified parts are appended to the rank's
	// disk bins instead and the insert is deferred to the per-bin pass.
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
		sp := rec.Begin(rank, r, obs.PhaseCount)
		var (
			cmeter kernels.WorkMeter
			err    error
		)
		if cfg.Mode == KmerMode {
			cmeter = cpuCountKmers(cfg, table, bloom, st.recvWords)
		} else {
			cmeter, err = cpuCountSupermers(cfg, table, bloom, st.recvWire)
			if err != nil {
				sp.End(0, 0)
				return err
			}
		}
		countModeled := model.RankTimeLifted(cmeter.Ops, cmeter.Bytes, cmeter.Items, cfg.CPULoadLift)
		out.count += countModeled
		out.countOps += cmeter.Ops
		sp.End(countModeled, st.roundRecv)
		return nil
	}

	hooks := roundHooks{start: start, parse: parse, post: post, finish: finish, count: count}
	if ck != nil {
		hooks.ckptAt = ck.at
		hooks.ckpt = func(r int) error {
			return ck.write(c, seat, r, kcount.FromTable(table, cfg.K, ck.flags), out)
		}
	}
	rounds, err := runRounds(cfg.Overlap, seat.base, hooks)
	if err != nil {
		return err
	}
	out.rounds = rounds
	if rsp != nil {
		return cpuCountBins(cfg, model, rsp, out)
	}
	dg := kcount.NewDigest(topKPerRank)
	table.ForEach(dg.Add)
	out.summarize(dg)
	if cfg.KeepTables {
		out.table = table
	}
	return nil
}

// cpuCountBins is the CPU engine's spill pass 2: count each bin into a
// fresh working-set table — sized for that bin alone, never the whole
// spectrum slice — straight from the verified record payloads.
func cpuCountBins(cfg Config, model cluster.CPUModel, rsp *rankSpill, out *rankOutcome) error {
	return rsp.countBins(out, func(b int, dg *kcount.Digest) (time.Duration, uint64, error) {
		bt := kcount.NewTable(1, cfg.Probing)
		var (
			binItems uint64
			bmeter   kernels.WorkMeter
		)
		err := rsp.readBin(b, func(payload []byte, items int) error {
			if cfg.Mode == KmerMode {
				for i := 0; i < items; i++ {
					countOne(bt, nil, leUint64(payload[8*i:]), &bmeter)
				}
			} else {
				m, err := cpuCountSupermers(cfg, bt, nil, [][]byte{payload})
				if err != nil {
					return err
				}
				bmeter.Add(m)
			}
			binItems += uint64(items)
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		countModeled := model.RankTimeLifted(bmeter.Ops, bmeter.Bytes, bmeter.Items, cfg.CPULoadLift)
		out.count += countModeled
		out.countOps += bmeter.Ops
		bt.ForEach(dg.Add)
		return countModeled, binItems, nil
	})
}

// cpuParseKmers is the scalar PARSEKMER of Alg. 1: a rolling sliding-window
// parse, one hash per k-mer, append to the destination's outgoing vector.
// prev's rows are truncated and reused when provided.
func cpuParseKmers(cfg Config, nProc int, data []byte, prev [][]uint64) ([][]uint64, kernels.WorkMeter) {
	var m kernels.WorkMeter
	out := prev
	if len(out) != nProc {
		out = make([][]uint64, nProc)
	}
	for d := range out {
		out[d] = out[d][:0]
	}
	k, enc := cfg.K, cfg.Enc
	var kw uint64
	valid := 0
	m.AddBytes(len(data)) // one streaming read of the partition
	for _, ch := range data {
		code, ok := enc.Encode(ch)
		m.AddOps(kernels.OpsEncodeBase)
		if !ok {
			valid = 0
			continue
		}
		kw = (kw<<2 | uint64(code)) & kmerMask(k)
		m.AddOps(kernels.OpsKmerRoll)
		valid++
		if valid < k {
			continue
		}
		key := kw
		if cfg.Canonical {
			key = uint64(dna.Kmer(key).Canonical(enc, k))
			m.AddOps(k * kernels.OpsKmerRoll)
		}
		m.AddOps(kernels.OpsHash + kernels.OpsDestSelect + kernels.OpsEmit)
		m.AddItems(1)
		dest := kernels.DestOf(key, nProc)
		out[dest] = append(out[dest], key)
		m.AddBytes(8)
	}
	return out, m
}

// cpuBuildSupermers is the scalar BUILDSUPERMER of Alg. 2, windowed exactly
// like the GPU kernel so both engines ship identical supermer sets. prev's
// rows are truncated and reused when provided.
func cpuBuildSupermers(cfg Config, destMap []uint16, nProc int, data []byte, prev [][]byte) ([][]byte, kernels.WorkMeter, error) {
	var m kernels.WorkMeter
	out := prev
	if len(out) != nProc {
		out = make([][]byte, nProc)
	}
	for d := range out {
		out[d] = out[d][:0]
	}
	mc := cfg.minimizerConfig()
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	m.AddBytes(len(data))
	// Per-base rolling cost and per-k-mer minimizer cost.
	nBases := 0
	for _, ch := range data {
		if cfg.Enc.Valid(ch) {
			nBases++
		}
	}
	m.AddOps(len(data) * kernels.OpsEncodeBase)
	m.AddOps(nBases * kernels.OpsKmerRoll)
	err := minimizer.BuildWindowed(cfg.Enc, data, mc, func(s minimizer.Supermer) {
		m.AddItems(s.NKmers)
		m.AddOps(s.NKmers * (mc.K - mc.M + 1) * kernels.OpsMinimizerCand)
		m.AddOps(s.Len(mc.K) * kernels.OpsPackBase)
		var dest int
		if destMap != nil {
			m.AddOps(kernels.OpsEmit)
			m.AddBytes(2)
			dest = int(destMap[s.Min])
		} else {
			m.AddOps(kernels.OpsHash + kernels.OpsDestSelect + kernels.OpsEmit)
			dest = kernels.DestOf(uint64(s.Min), nProc)
		}
		out[dest] = wire.Encode(out[dest], &s)
		m.AddBytes(wire.Stride())
	})
	if err != nil {
		return nil, m, err
	}
	return out, m, nil
}

// cpuCountKmers is the scalar COUNTKMER of Alg. 1 over an open-addressing
// table (the same structure the GPU uses, without atomics), consuming the
// received per-source parts in place.
func cpuCountKmers(cfg Config, table *kcount.Table, bloom *kcount.Bloom, parts [][]uint64) kernels.WorkMeter {
	var m kernels.WorkMeter
	for _, part := range parts {
		for _, key := range part {
			countOne(table, bloom, key, &m)
		}
	}
	return m
}

// countOne inserts one received k-mer, routing first sightings through the
// Bloom filter when the singleton pre-filter is active (BFCounter scheme:
// a key enters the table on its second sighting, with count 2 so surviving
// counts stay exact).
func countOne(table *kcount.Table, bloom *kcount.Bloom, key uint64, m *kernels.WorkMeter) {
	m.AddItems(1)
	if bloom != nil {
		m.AddOps(bloom.Hashes() * kernels.OpsHash)
		m.AddBytes(bloom.Hashes()) // one bit-word touch per hash
		if !bloom.TestAndSet(key) {
			return // first sighting stays in the filter
		}
	}
	before := table.Probes
	isNew := table.Inc(key)
	if bloom != nil && isNew {
		// The Bloom filter absorbed the first sighting: account for it.
		table.Add(key, 1)
	}
	probes := int(table.Probes - before)
	m.AddOps(kernels.OpsHash + probes*kernels.OpsProbe + kernels.OpsEmit)
	m.AddBytes(8 + probes*8 + 4)
}

// cpuCountSupermers extracts k-mers from received supermers and counts them
// (Alg. 2 COUNTKMER), consuming the received per-source parts in place. The
// received bytes are exchanged data: a decode failure surfaces as an error,
// never a panic.
func cpuCountSupermers(cfg Config, table *kcount.Table, bloom *kcount.Bloom, parts [][]byte) (kernels.WorkMeter, error) {
	var m kernels.WorkMeter
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	stride := wire.Stride()
	for _, recv := range parts {
		n, err := wire.Count(recv)
		if err != nil {
			return m, err
		}
		for i := 0; i < n; i++ {
			seq, nk, err := wire.Decode(recv[i*stride:])
			if err != nil {
				return m, err
			}
			m.AddBytes(stride)
			var kw uint64
			for j := 0; j < cfg.K-1; j++ {
				kw = kw<<2 | uint64(seq.At(j))
				m.AddOps(kernels.OpsKmerRoll)
			}
			for j := 0; j < nk; j++ {
				kw = (kw<<2 | uint64(seq.At(j+cfg.K-1))) & kmerMask(cfg.K)
				m.AddOps(kernels.OpsKmerRoll)
				countOne(table, bloom, kw, &m)
			}
		}
	}
	return m, nil
}

func kmerMask(k int) uint64 {
	if k >= 32 {
		return ^uint64(0)
	}
	return (uint64(1) << (2 * uint(k))) - 1
}
