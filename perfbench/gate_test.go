package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/kcount"
	"dedukt/internal/pipeline"
)

func smallReads(seed int64) ([]fastq.Record, error) {
	cfg := genome.DefaultConfig(6_000)
	cfg.Seed = seed
	g, err := genome.Generate("small", cfg)
	if err != nil {
		return nil, err
	}
	prof := genome.DefaultShortReads()
	prof.Seed = seed + 1
	return genome.SimulateReads(g, 8, prof)
}

func smallState(t *testing.T) *countState {
	t.Helper()
	spec := countSpec{reads: smallReads, config: func(uint64) pipeline.Config {
		return pipeline.Default(cluster.SummitGPU(1), pipeline.SupermerMode)
	}}
	st, err := newCountState(spec, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func cloneResult(res *pipeline.Result) *pipeline.Result {
	c := *res
	c.Histogram = kcount.Histogram{Counts: map[uint32]uint64{}}
	for f, n := range res.Histogram.Counts {
		c.Histogram.Counts[f] = n
	}
	c.TopKmers = append([]kcount.KV(nil), res.TopKmers...)
	return &c
}

// TestGateCountsAlteredSpectrum checks that the counting gate passes the
// pipeline's own result and fails every kind of altered spectrum.
func TestGateCountsAlteredSpectrum(t *testing.T) {
	st := smallState(t)
	res, err := st.run(st.cfg)
	if msg := st.check(res, err); msg != "" {
		t.Fatalf("unaltered run fails the gate: %s", msg)
	}
	alter := map[string]func(r *pipeline.Result){
		"total":     func(r *pipeline.Result) { r.TotalKmers++ },
		"distinct":  func(r *pipeline.Result) { r.DistinctKmers-- },
		"histogram": func(r *pipeline.Result) { r.Histogram.Counts[1]--; r.Histogram.Counts[2]++ },
		"top count": func(r *pipeline.Result) { r.TopKmers[0].Count++ },
		"top key":   func(r *pipeline.Result) { r.TopKmers[5].Key ^= 1 },
		"top order": func(r *pipeline.Result) { r.TopKmers[0], r.TopKmers[1] = r.TopKmers[1], r.TopKmers[0] },
		"incomplete": func(r *pipeline.Result) {
			r.Incomplete = true
		},
	}
	for name, fn := range alter {
		bad := cloneResult(res)
		fn(bad)
		if msg := st.check(bad, nil); msg == "" {
			t.Errorf("%s: altered spectrum passes the gate", name)
		}
	}
	if msg := st.check(nil, os.ErrClosed); msg == "" {
		t.Error("a failed run passes the gate")
	}
}

// TestGateCountsWrongLookup serves a spectrum over HTTP and checks that a
// wrong answer is counted as a failed request, and right ones are not.
func TestGateCountsWrongLookup(t *testing.T) {
	st := smallState(t)
	db := st.oracle.db
	ks := makeKeys(db, st.cfg.Enc, 7)
	srv, err := startServer(db)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()

	c := newClient(srv.url, ks)
	defer c.close()
	if got := c.closedLoop(time.Minute, 16); got.failed != 0 || got.requests != 16 {
		t.Fatalf("correct server: %d of %d requests failed: %v", got.failed, got.requests, got.failures)
	}
	// Expect a wrong count for one key of batch 0 and for an absent key
	// of batch 1: both requests must now fail, every other one pass.
	ks.want[0][3]++
	for i, w := range ks.want[1] {
		if w == 0 {
			ks.want[1][i] = 1
			break
		}
	}
	wrong := newClient(srv.url, ks)
	defer wrong.close()
	got := wrong.closedLoop(time.Minute, 16)
	if got.failed != 2 || got.requests != 16 {
		t.Fatalf("%d of %d requests failed, want 2 of 16: %v", got.failed, got.requests, got.failures)
	}

	br := batchResponse{}
	br.Results = make([]struct {
		Count   uint32 `json:"count"`
		Present bool   `json:"present"`
	}, 2)
	br.Results[0].Count, br.Results[0].Present = 4, true
	if msg := checkCounts([]uint64{1, 2}, []uint32{4, 0}, br); msg != "" {
		t.Errorf("right answer rejected: %s", msg)
	}
	br.Results[1].Present = true
	if msg := checkCounts([]uint64{1, 2}, []uint32{4, 0}, br); msg == "" {
		t.Error("absent key reported present passes")
	}
}

// TestReplayMatchesRun replays a small GPU supermer run layer by layer and
// checks it reproduces the run's spectrum, payload and kernel statistics.
func TestReplayMatchesRun(t *testing.T) {
	st := smallState(t)
	st.cfg.RoundBases = int(st.bases) / 6 / 3
	res, err := st.run(st.cfg)
	if msg := st.check(res, err); msg != "" {
		t.Fatal(msg)
	}
	tr := newTracer()
	p, err := replayPath(tr, tr.begin("replay", noSpan, noSpan), st, st.cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if msg := replayDiff(p, res, true); msg != "" {
		t.Fatalf("replay differs from the run: %s", msg)
	}
	for name, alter := range map[string]func(*replayed){
		"parse stats":  func(p *replayed) { p.parseSt.MemTransactions++ },
		"count launch": func(p *replayed) { p.countSt.Threads++ },
		"count probes": func(p *replayed) { p.countSt.MemTransactions += p.countSt.MemTransactions / 100 },
		"payload":      func(p *replayed) { p.payloadBytes-- },
		"spectrum":     func(p *replayed) { p.spec.total++ },
	} {
		bad := *p
		alter(&bad)
		if msg := replayDiff(&bad, res, true); msg == "" {
			t.Errorf("replay with altered %s passes the check", name)
		}
	}

	k, err := replayPath(tr, tr.begin("replay", noSpan, noSpan), st, cpuKmerConfig(st.bases), false)
	if err != nil {
		t.Fatal(err)
	}
	if msg := st.oracle.spec.diff(k.spec); msg != "" {
		t.Fatalf("k-mer replay spectrum: %s", msg)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the declared metrics in step
// with BENCHMARK.json at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloadRecordNamesMetrics keeps workloads.json's layer map to the
// per-layer metrics the benchmark reports, and its workloads to the
// benchmark's.
func TestWorkloadRecordNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Workloads map[string]json.RawMessage
		LayerMap  []struct{ Metrics []string } `json:"layer_map"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := rec.Workloads[w.name]; !ok {
			t.Errorf("workloads.json does not describe %s", w.name)
		}
	}
	declared := map[string]bool{}
	for _, d := range perLayerMetrics {
		declared[d.name] = true
	}
	mapped := map[string]bool{}
	for _, row := range rec.LayerMap {
		for _, m := range row.Metrics {
			if !declared[m] {
				t.Errorf("workloads.json maps %s, which the benchmark does not report", m)
			}
			mapped[m] = true
		}
	}
	for name := range declared {
		if !mapped[name] {
			t.Errorf("per-layer metric %s is missing from workloads.json's layer map", name)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := record{Workload: "gpu-supermer", Stamp: stamp{CPUModel: "x", NProc: 2, GOMAXPROCS: 2}, Report: map[string]metric{"setup_s": {1, unitS}}}
	b := a
	b.Report = map[string]metric{"setup_s": {1.5, unitS}}
	if out := compareRecords(a, b); !strings.Contains(out, "+50.00%") {
		t.Errorf("same host: want a delta, got\n%s", out)
	}
	b.Stamp.NProc = 4
	if out := compareRecords(a, b); !strings.Contains(out, "not comparable") || strings.Contains(out, "%") {
		t.Errorf("different hosts: want \"not comparable\" and no delta, got\n%s", out)
	}
}
