// Command perfbench is the repository's benchmark. One run measures one
// named workload for a fixed number of seconds, checks every output it
// produces against a serial oracle, and prints a single JSON object as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (tracing off); with
// -trace 1 a separate traced pass replays each layer of the workload and
// reports the per-layer set. A human-readable report, stamped with the
// host, goes to standard error, and the full record (stamp, every metric,
// every span) is written under -out.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload gpu-supermer --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the contract line printed last on standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result of one run, written to a file under -out.
type record struct {
	Stamp    stamp                `json:"stamp"`
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Input    inputInfo            `json:"input"`
	Outcome  outcome              `json:"outcome"`
	Report   map[string]metric    `json:"report"`
	Notes    []string             `json:"notes,omitempty"`
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Spans    []span               `json:"spans,omitempty"`
}

// inputInfo describes a workload's generated input.
type inputInfo struct {
	Reads      int    `json:"reads"`
	Bases      uint64 `json:"bases"`
	FastqBytes int    `json:"fastq_bytes"`
	Distinct   uint64 `json:"distinct_kmers"`
}

// result is what a workload run hands back to main.
type result struct {
	input     inputInfo
	attempted int64
	failed    int64
	// metrics holds every number the run measured, by name; main picks
	// the contract set out of it and keeps the rest in the report.
	metrics map[string]metric
	notes   []string
	spans   []span
	// samples keeps the raw values behind a median or a percentile.
	samples map[string][]float64
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

// options are the per-run settings shared by every workload.
type options struct {
	seed    int64
	seconds time.Duration
	out     string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced per-layer pass")
		out     = flag.String("out", ".bench_build", "directory for the run record and scratch files")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// One simulated world runs on the host's real cores: never ask the Go
	// scheduler for more threads than the host has CPUs.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: *out}

	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = w.traced(opt)
	} else {
		res, err = w.endToEnd(opt)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}

	set := endToEndMetrics
	if *trace == 1 {
		set = perLayerMetrics
	}
	oc := outcome{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, d := range set {
		m, ok := res.metrics[d.name]
		if !ok {
			// A run whose outputs already failed the gate may stop short
			// of a metric; it reports 0 and is marked incorrect.
			if res.failed == 0 {
				fatal(fmt.Errorf("%s: metric %s was not measured", w.name, d.name))
			}
			m = metric{Unit: d.unit}
		}
		if m.Unit != d.unit {
			fatal(fmt.Errorf("%s: metric %s measured in %s, declared in %s", w.name, d.name, m.Unit, d.unit))
		}
		oc.Metrics[d.name] = m
	}
	oc.Correct = res.failed == 0 && res.attempted > 0

	rec := record{
		Stamp: readStamp(), Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Input: res.input, Outcome: oc, Report: res.metrics, Notes: res.notes, Samples: res.samples, Spans: res.spans,
	}
	path := filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeJSON(path, rec); err != nil {
		fatal(err)
	}
	printReport(rec, path)

	line, err := json.Marshal(oc)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes the human-readable view of a run to standard error:
// the host stamp, the input, every measured metric by name with its unit,
// and any failure notes.
func printReport(rec record, path string) {
	s := rec.Stamp
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(os.Stderr, "host: %s/%s cpu=%q nproc=%d gomaxprocs=%d %s rev=%s dirty=%v\n",
		s.GOOS, s.GOARCH, s.CPUModel, s.NProc, s.GOMAXPROCS, s.GoVersion, s.Revision, s.Modified)
	fmt.Fprintf(os.Stderr, "input: reads=%d bases=%d fastq_bytes=%d distinct_kmers=%d\n",
		rec.Input.Reads, rec.Input.Bases, rec.Input.FastqBytes, rec.Input.Distinct)
	names := make([]string, 0, len(rec.Report))
	for n := range rec.Report {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Report[n]
		fmt.Fprintf(os.Stderr, "  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
	fmt.Fprintf(os.Stderr, "attempted=%d failed=%d record=%s\n", rec.Outcome.Attempted, rec.Outcome.Failed, path)
}
