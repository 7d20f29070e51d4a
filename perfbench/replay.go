package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/kmer"
	"dedukt/internal/minimizer"
	"dedukt/internal/mpisim"
	"dedukt/internal/pipeline"
)

// The layer replays re-run a counting pipeline one public layer call at a
// time, on the same per-rank partitions and round chunks the pipeline
// uses, with a span around every call:
//
//	gpu supermers: dna.SeqBuffer -> kernels.BuildSupermers -> frame ->
//	  mpisim AlltoallvBytes -> unframe -> kernels.CountSupermers ->
//	  Snapshot / TopK / Histogram
//	cpu k-mers:    fastq.Stream -> dna.SeqBuffer -> kmer.ExtractBuffer ->
//	  frame -> mpisim hierarchical AlltoallvUint64 -> unframe -> spill
//	  bins -> kcount.Table inserts -> TopK / Histogram / BinAccumulator
//
// Ranks run one after another on the benchmark's goroutine, so a layer's
// span holds that layer's work alone; only the collectives run on rank
// goroutines inside mpisim.

// replayed is what a replay reproduces of a pipeline Result, plus the
// layer numbers it measured.
type replayed struct {
	spec             spectrum
	parseSt, countSt gpusim.KernelStats
	payloadBytes     uint64
	layers           map[string]metric
}

func (p *replayed) set(name string, v float64, unit string) {
	if p.layers == nil {
		p.layers = map[string]metric{}
	}
	p.layers[name] = metric{Value: v, Unit: unit}
}

// chunker cuts one rank's partition into rounds of at most max bases,
// exactly as the pipeline's in-memory source does.
type chunker struct {
	reads []fastq.Record
	max   int
	i     int
}

func (c *chunker) next() (recs []fastq.Record, more bool) {
	start, bases := c.i, 0
	for c.i < len(c.reads) {
		n := len(c.reads[c.i].Seq)
		if c.max > 0 && bases > 0 && bases+n > c.max {
			break
		}
		bases += n
		c.i++
	}
	return c.reads[start:c.i], c.i < len(c.reads)
}

func chunkers(reads []fastq.Record, ranks, max int) []chunker {
	parts := fastq.Partition(reads, ranks)
	cs := make([]chunker, ranks)
	for r, p := range parts {
		cs[r] = chunker{reads: p, max: max}
	}
	return cs
}

// exchangeStats accumulates what the replayed collectives did.
type exchangeStats struct {
	wall, wait     time.Duration
	bytes, offNode uint64
	messages       uint64
	modeled        time.Duration
}

// collect times one replayed exchange from its per-rank arrival and
// completion times and folds in its traffic trace.
func (x *exchangeStats) collect(tr *tracer, parent int, net mpisim.NetModel, arrive, done []time.Time, trace []mpisim.TraceEntry) {
	first, last, finish := arrive[0], arrive[0], done[0]
	for r := range arrive {
		tr.add("mpisim.alltoallv", parent, r, arrive[r], done[r])
		if arrive[r].Before(first) {
			first = arrive[r]
		}
		if arrive[r].After(last) {
			last = arrive[r]
		}
		if done[r].After(finish) {
			finish = done[r]
		}
	}
	for r := range arrive {
		x.wait += last.Sub(arrive[r])
	}
	x.wall += finish.Sub(first)
	for _, e := range trace {
		if e.Bytes == nil {
			continue
		}
		x.modeled += net.CollectiveTime(e.Bytes)
		for i, row := range e.Bytes {
			for j, b := range row {
				x.bytes += b
				if b > 0 && i != j {
					x.messages++
				}
				if net.NodeOf(i) != net.NodeOf(j) {
					x.offNode += b
				}
			}
		}
	}
}

func (x *exchangeStats) report(p *replayed) {
	p.set("mpisim.alltoallv_s", x.wall.Seconds(), unitS)
	p.set("mpisim.alltoallv_wait_s", x.wait.Seconds(), unitS)
	p.set("mpisim.bytes_offnode", float64(x.offNode), unitBytes)
	p.set("mpisim.messages", float64(x.messages), unitCount)
	p.set("mpisim.effective_gbps", ratio(float64(x.bytes), x.wall.Seconds())/1e9, unitGBps)
	// An exchange that never leaves a node has no modeled fabric time; its
	// modeled rate is reported as 0, not as infinity.
	p.set("mpisim.modeled_gbps", ratio(float64(x.bytes), x.modeled.Seconds())/1e9, unitGBps)
	p.set("mpisim.modeled_s", x.modeled.Seconds(), unitModeledS)
	p.set("mpisim.collective_bytes", float64(x.bytes), unitBytes)
}

// flatBytes runs one flat P×P byte Alltoallv of the given framed parts.
func flatBytes(tr *tracer, parent int, net mpisim.NetModel, x *exchangeStats, send [][][]byte) ([][][]byte, error) {
	p := len(send)
	recv := make([][][]byte, p)
	arrive, done := make([]time.Time, p), make([]time.Time, p)
	trace, err := mpisim.RunWithOptions(p, mpisim.Options{RanksPerNode: net.RanksPerNode}, func(c *mpisim.Comm) error {
		r := c.Rank()
		arrive[r] = time.Now()
		got, err := c.AlltoallvBytes(send[r])
		done[r] = time.Now()
		recv[r] = got
		return err
	})
	if err != nil {
		return nil, err
	}
	x.collect(tr, parent, net, arrive, done, trace)
	return recv, nil
}

// hierHeader packs a record header of the hierarchical exchange: source,
// destination and frame length in words.
func hierHeader(src, dest, n int) uint64 {
	return uint64(src)<<48 | uint64(dest)<<32 | uint64(uint32(n))
}

// eachRecord walks a blob of [header, frame...] records.
func eachRecord(blob []uint64, fn func(src, dest int, frame []uint64)) error {
	for len(blob) > 0 {
		h := blob[0]
		src, dest, n := int(h>>48), int(h>>32&0xffff), int(uint32(h))
		if n+1 > len(blob) {
			return fmt.Errorf("hierarchical record of %d words overruns its %d-word blob", n, len(blob)-1)
		}
		fn(src, dest, blob[1:1+n])
		blob = blob[1+n:]
	}
	return nil
}

// hierWords runs the topology-aware two-stage word exchange: an intra-node
// gather onto node leaders, one Alltoallv between leaders, and an
// intra-node scatter. Every frame travels inside a [header, frame] record,
// and each rank reassembles the per-source frame vector a flat exchange
// would have delivered.
func hierWords(tr *tracer, parent int, net mpisim.NetModel, x *exchangeStats, send [][][]uint64) ([][][]uint64, error) {
	p := len(send)
	topo := net.Topology()
	recv := make([][][]uint64, p)
	arrive, done := make([]time.Time, p), make([]time.Time, p)
	trace, err := mpisim.RunWithOptions(p, mpisim.Options{RanksPerNode: net.RanksPerNode}, func(c *mpisim.Comm) error {
		r := c.Rank()
		arrive[r] = time.Now()
		defer func() { done[r] = time.Now() }()
		frames := make([][]uint64, p)
		keep := func(src, dest int, frame []uint64) { frames[src] = frame }

		gather := make([][]uint64, p)
		for d, frame := range send[r] {
			to := d
			if !topo.SameNode(r, d) {
				to = topo.LeaderOf(r)
			}
			gather[to] = append(append(gather[to], hierHeader(r, d, len(frame))), frame...)
		}
		got, err := c.NodeAlltoallvUint64(topo, gather)
		if err != nil {
			return err
		}
		leader := make([][]uint64, p)
		for _, blob := range got {
			if err := eachRecord(blob, func(src, dest int, frame []uint64) {
				if dest == r {
					keep(src, dest, frame)
					return
				}
				l := topo.LeaderOf(dest)
				leader[l] = append(append(leader[l], hierHeader(src, dest, len(frame))), frame...)
			}); err != nil {
				return err
			}
		}
		if got, err = c.AlltoallvUint64(leader); err != nil {
			return err
		}
		scatter := make([][]uint64, p)
		for _, blob := range got {
			if err := eachRecord(blob, func(src, dest int, frame []uint64) {
				scatter[dest] = append(append(scatter[dest], hierHeader(src, dest, len(frame))), frame...)
			}); err != nil {
				return err
			}
		}
		if got, err = c.NodeAlltoallvUint64(topo, scatter); err != nil {
			return err
		}
		for _, blob := range got {
			if err := eachRecord(blob, keep); err != nil {
				return err
			}
		}
		recv[r] = frames
		return nil
	})
	if err != nil {
		return nil, err
	}
	x.collect(tr, parent, net, arrive, done, trace)
	return recv, nil
}

// replaySupermers replays the GPU supermer pipeline of cfg over reads.
func replaySupermers(tr *tracer, root int, cfg pipeline.Config, reads []fastq.Record, bases uint64) (*replayed, error) {
	p := cfg.Layout.Ranks()
	mc := minimizer.Config{K: cfg.K, M: cfg.M, Window: cfg.Window, Ord: cfg.Ord}
	if mc.Ord == nil {
		mc.Ord = minimizer.Value{}
	}
	scfg := kernels.SupermerConfig{Enc: cfg.Enc, C: mc, NumDest: p}
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	stride := wire.Stride()
	load := cfg.TableLoad
	if load == 0 {
		load = 0.5
	}

	src := chunkers(reads, p, cfg.RoundBases)
	devs := make([]*gpusim.Device, p)
	tables := make([]*kcount.AtomicTable, p)
	scratch := make([]kernels.SupermerScratch, p)
	bufs := make([]dna.SeqBuffer, p)
	received := make([][][]byte, p) // every payload a rank counted, for the insert probe
	for r := range devs {
		devs[r] = gpusim.MustDevice(*cfg.Layout.GPU)
		tables[r] = kcount.NewAtomicTable(1, load, cfg.Probing)
	}
	out := &replayed{}
	var (
		x                exchangeStats
		supermers, items uint64
		kernelModeled    time.Duration
		rounds           int
		distinctPerRank  = make([]int, p)
		spec             = spectrum{hist: map[uint32]uint64{}}
		topAll           []kcount.KV
		inserts, probes  uint64
	)
	for more := true; more; rounds++ {
		round := tr.begin("replay.round", root, noSpan)
		more = false
		send := make([][][]byte, p)
		for r := 0; r < p; r++ {
			recs, m := src[r].next()
			more = more || m
			sp := tr.begin("dna.pack", round, r)
			bufs[r].Reset()
			for _, rd := range recs {
				bufs[r].AppendRead(rd.Seq)
			}
			tr.end(sp)
			data := bufs[r].Data()

			sp = tr.begin("minimizer.build", round, r)
			err := minimizer.BuildWindowed(cfg.Enc, data, mc, func(minimizer.Supermer) { supermers++ })
			tr.end(sp)
			if err != nil {
				return nil, err
			}

			sp = tr.begin("kernels.build_supermers", round, r)
			parts, st, err := kernels.BuildSupermers(devs[r], scfg, data, &scratch[r])
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			out.parseSt.Add(st)
			kernelModeled += devs[r].Config().KernelTime(&st)

			sp = tr.begin("kernels.frame", round, r)
			send[r] = make([][]byte, p)
			for d, part := range parts {
				send[r][d] = kernels.FrameBytes(part, len(part)/stride)
				out.payloadBytes += uint64(len(part))
				items += uint64(len(part) / stride)
			}
			tr.end(sp)
		}

		recv, err := flatBytes(tr, round, cfg.Layout.Net, &x, send)
		if err != nil {
			return nil, err
		}

		for r := 0; r < p; r++ {
			sp := tr.begin("kernels.frame", round, r)
			payloads := make([][]byte, p)
			incoming := 0
			for s, frame := range recv[r] {
				payload, n, err := kernels.UnframeBytes(frame)
				if err != nil {
					tr.end(sp)
					return nil, fmt.Errorf("rank %d from %d: %w", r, s, err)
				}
				payloads[s] = payload
				incoming += n
			}
			tr.end(sp)
			received[r] = append(received[r], payloads...)

			sp = tr.begin("kcount.grow", round, r)
			tables[r], err = growAtomic(tables[r], incoming*cfg.Window, load, cfg.Probing)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("kernels.count_supermers", round, r)
			st, err := kernels.CountSupermers(devs[r], tables[r], wire, payloads)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			out.countSt.Add(st)
			kernelModeled += devs[r].Config().KernelTime(&st)
		}
		tr.end(round)
	}

	for r := 0; r < p; r++ {
		sp := tr.begin("kcount.snapshot", root, r)
		snap := tables[r].Snapshot()
		tr.end(sp)
		sp = tr.begin("kcount.topk", root, r)
		top := snap.TopK(topK)
		tr.end(sp)
		sp = tr.begin("kcount.histogram", root, r)
		h := snap.Histogram()
		tr.end(sp)
		spec.total += snap.TotalCount()
		spec.distinct += uint64(snap.Len())
		for f, n := range h.Counts {
			spec.hist[f] += n
		}
		topAll = append(topAll, top...)
		distinctPerRank[r] = snap.Len()
	}
	spec.top = sortTop(topAll, topK)
	out.spec = spec

	// Insert probe: the k-mers each rank counted, inserted into an atomic
	// table presized for the rank's spectrum, with no device accounting
	// around them — the table alone.
	for r := 0; r < p; r++ {
		keys, err := supermerKmers(wire, received[r])
		if err != nil {
			return nil, err
		}
		t := kcount.NewAtomicTable(distinctPerRank[r]+1, load, cfg.Probing)
		sp := tr.begin("kcount.insert", root, r)
		for _, k := range keys {
			if _, _, err := t.Inc(k); err != nil {
				tr.end(sp)
				return nil, err
			}
		}
		tr.end(sp)
		inserts += uint64(len(keys))
		probes += t.Probes()
	}

	all := out.parseSt
	all.Add(out.countSt)
	build, mini := tr.seconds("kernels.build_supermers", root), tr.seconds("minimizer.build", root)
	insert := tr.seconds("kcount.insert", root)
	out.set("dna.pack_s", tr.seconds("dna.pack", root), unitS)
	out.set("minimizer.build_s", mini, unitS)
	out.set("minimizer.supermers", float64(supermers), unitCount)
	out.set("kernels.build_supermers_s", build, unitS)
	out.set("gpusim.overhead_ratio", ratio(build, mini), unitRatio)
	out.set("gpusim.transactions", float64(all.MemTransactions), unitCount)
	out.set("gpusim.coalescing_efficiency", ratio(float64(all.MemBytesRequested), 32*float64(all.MemTransactions)), unitRatio)
	out.set("gpusim.atomics", float64(all.AtomicOps), unitCount)
	out.set("gpusim.divergence_waste", ratio(float64(all.ComputeOps), float64(all.RawComputeOps)), unitRatio)
	out.set("gpusim.kernel_modeled_s", kernelModeled.Seconds(), unitModeledS)
	out.set("kernels.count_supermers_s", tr.seconds("kernels.count_supermers", root), unitS)
	out.set("kernels.frame_s", tr.seconds("kernels.frame", root), unitS)
	out.set("kernels.payload_bytes_per_base", ratio(float64(out.payloadBytes), float64(bases)), unitRatio)
	out.set("kernels.items_per_base", ratio(float64(items), float64(bases)), unitRatio)
	out.set("kcount.grow_s", tr.seconds("kcount.grow", root), unitS)
	out.set("kcount.snapshot_s", tr.seconds("kcount.snapshot", root), unitS)
	out.set("kcount.topk_s", tr.seconds("kcount.topk", root), unitS)
	out.set("kcount.histogram_s", tr.seconds("kcount.histogram", root), unitS)
	out.set("kcount.insert_s", insert, unitS)
	out.set("kcount.inserts_per_s", ratio(float64(inserts), insert), unitPerS)
	out.set("kcount.probes_per_insert", ratio(float64(probes), float64(inserts)), unitRatio)
	out.set("replay.rounds", float64(rounds), unitCount)
	x.report(out)
	return out, nil
}

// growAtomic grows a rank's table ahead of a round the way the pipeline
// does: when the incoming items could push it past its load factor, into
// a fresh table sized for both, re-adding the old entries in slot order.
func growAtomic(t *kcount.AtomicTable, incoming int, load float64, prob kcount.Probing) (*kcount.AtomicTable, error) {
	needed := t.Len() + incoming
	if float64(needed) <= load*float64(t.Cap()) {
		return t, nil
	}
	bigger := kcount.NewAtomicTable(needed, load, prob)
	var err error
	t.ForEach(func(k uint64, c uint32) {
		if err == nil {
			_, _, err = bigger.Add(k, c)
		}
	})
	return bigger, err
}

// supermerKmers decodes the k-mers of a rank's received supermer images.
func supermerKmers(wire kernels.SupermerWire, payloads [][]byte) ([]uint64, error) {
	stride := wire.Stride()
	var keys []uint64
	for _, p := range payloads {
		for off := 0; off+stride <= len(p); off += stride {
			seq, nk, err := wire.Decode(p[off : off+stride])
			if err != nil {
				return nil, err
			}
			for i := 0; i < nk; i++ {
				keys = append(keys, uint64(seq.Kmer(i, wire.K)))
			}
		}
	}
	return keys, nil
}

// replayKmers replays the CPU k-mer pipeline of cfg over the rendered
// FASTQ, with the streaming round size and the spill bins of the
// out-of-core path (bins are kept in memory: the replay measures the
// counting layers, not the disk).
func replayKmers(tr *tracer, root int, cfg pipeline.Config, fq []byte, bases uint64) (*replayed, error) {
	p := cfg.Layout.Ranks()
	out := &replayed{}

	sp := tr.begin("fastq.parse", root, noSpan)
	var reads []fastq.Record
	stream := fastq.NewStream(fastq.Input{Name: "generated.fastq", R: bytes.NewReader(fq)})
	for {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		reads = append(reads, rec.Clone())
	}
	tr.end(sp)

	budget := cfg.MemBudgetBytes
	if budget == 0 {
		budget = pipeline.DefaultMemBudget
	}
	// The pipeline's streaming round size: the budget shared by every
	// rank's round buffers at 48 live bytes per base.
	roundBases := int(budget / int64(p*48))
	if cfg.RoundBases > 0 && cfg.RoundBases < roundBases {
		roundBases = cfg.RoundBases
	}
	src := chunkers(reads, p, roundBases)
	bins := cfg.Spill.Bins
	if bins == 0 {
		bins = 32
	}
	binned := make([][][]uint64, p)
	for r := range binned {
		binned[r] = make([][]uint64, bins)
	}
	var (
		x                  exchangeStats
		buf                dna.SeqBuffer
		kmers              []dna.Kmer
		extracted, inserts uint64
		rounds             int
	)
	for more := true; more; rounds++ {
		round := tr.begin("replay.round", root, noSpan)
		more = false
		send := make([][][]uint64, p)
		for r := 0; r < p; r++ {
			recs, m := src[r].next()
			more = more || m
			sp := tr.begin("dna.pack", round, r)
			buf.Reset()
			for _, rd := range recs {
				buf.AppendRead(rd.Seq)
			}
			tr.end(sp)

			sp = tr.begin("kmer.extract", round, r)
			kmers = kmer.ExtractBuffer(kmers[:0], cfg.Enc, buf.Data(), cfg.K)
			tr.end(sp)
			extracted += uint64(len(kmers))

			sp = tr.begin("kernels.route", round, r)
			parts := make([][]uint64, p)
			for _, w := range kmers {
				d := kernels.DestOf(uint64(w), p)
				parts[d] = append(parts[d], uint64(w))
			}
			tr.end(sp)

			sp = tr.begin("kernels.frame", round, r)
			send[r] = make([][]uint64, p)
			for d, part := range parts {
				send[r][d] = kernels.FrameWords(part)
				out.payloadBytes += 8 * uint64(len(part))
			}
			tr.end(sp)
		}

		recv, err := hierWords(tr, round, cfg.Layout.Net, &x, send)
		if err != nil {
			return nil, err
		}

		for r := 0; r < p; r++ {
			sp := tr.begin("kernels.frame", round, r)
			payloads := make([][]uint64, p)
			for s, frame := range recv[r] {
				words, err := kernels.UnframeWords(frame)
				if err != nil {
					tr.end(sp)
					return nil, fmt.Errorf("rank %d from %d: %w", r, s, err)
				}
				payloads[s] = words
			}
			tr.end(sp)
			sp = tr.begin("kernels.spill_bin", round, r)
			for _, words := range payloads {
				for _, k := range words {
					b := kernels.SpillBinOf(k, bins)
					binned[r][b] = append(binned[r][b], k)
				}
			}
			tr.end(sp)
		}
		tr.end(round)
	}

	spec := spectrum{hist: map[uint32]uint64{}}
	var top []kcount.KV
	for r := 0; r < p; r++ {
		acc := kcount.NewBinAccumulator(topK)
		for b, keys := range binned[r] {
			sp := tr.begin("kcount.insert", root, r)
			t := kcount.NewTable(1, cfg.Probing)
			for _, k := range keys {
				t.Inc(k)
			}
			tr.end(sp)
			inserts += uint64(len(keys))
			binned[r][b] = nil
			sp = tr.begin("kcount.topk", root, r)
			t.TopK(topK)
			tr.end(sp)
			sp = tr.begin("kcount.histogram", root, r)
			t.Histogram()
			tr.end(sp)
			sp = tr.begin("kcount.binacc", root, r)
			acc.AddTable(t)
			tr.end(sp)
		}
		spec.total += acc.Total()
		spec.distinct += acc.Distinct()
		for f, n := range acc.Histogram().Counts {
			spec.hist[f] += n
		}
		top = append(top, acc.TopK()...)
	}
	spec.top = sortTop(top, topK)
	out.spec = spec

	parse := tr.seconds("fastq.parse", root)
	insert := tr.seconds("kcount.insert", root)
	out.set("fastq.parse_s", parse, unitS)
	out.set("fastq.mb_per_s", ratio(float64(len(fq))/1e6, parse), unitMBps)
	out.set("dna.pack_s", tr.seconds("dna.pack", root), unitS)
	out.set("kmer.extract_s", tr.seconds("kmer.extract", root), unitS)
	out.set("kmer.kmers", float64(extracted), unitCount)
	out.set("kernels.route_s", tr.seconds("kernels.route", root), unitS)
	out.set("kernels.frame_s", tr.seconds("kernels.frame", root), unitS)
	out.set("kernels.spill_bin_s", tr.seconds("kernels.spill_bin", root), unitS)
	out.set("kernels.payload_bytes_per_base", ratio(float64(out.payloadBytes), float64(bases)), unitRatio)
	out.set("kernels.items_per_base", ratio(float64(extracted), float64(bases)), unitRatio)
	out.set("kcount.insert_s", insert, unitS)
	out.set("kcount.inserts_per_s", ratio(float64(inserts), insert), unitPerS)
	out.set("kcount.topk_s", tr.seconds("kcount.topk", root), unitS)
	out.set("kcount.histogram_s", tr.seconds("kcount.histogram", root), unitS)
	out.set("kcount.binacc_s", tr.seconds("kcount.binacc", root), unitS)
	out.set("replay.rounds", float64(rounds), unitCount)
	x.report(out)
	return out, nil
}
