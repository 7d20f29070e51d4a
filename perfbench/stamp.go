package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"dedukt/internal/obs"
)

// stamp identifies the host and build a result came from. Two results are
// comparable only when every host field matches; the revision is what a
// comparison is usually about, so it is recorded but not compared.
type stamp struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func readStamp() stamp {
	b := obs.ReadBuild()
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	}
	return stamp{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: b.GoVersion, Revision: rev, Modified: b.Modified,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostDiff names the host fields on which two stamps differ.
func hostDiff(a, b stamp) []string {
	var d []string
	add := func(field string, x, y any) {
		if x != y {
			d = append(d, fmt.Sprintf("%s %v vs %v", field, x, y))
		}
	}
	add("goos", a.GOOS, b.GOOS)
	add("goarch", a.GOARCH, b.GOARCH)
	add("cpu", a.CPUModel, b.CPUModel)
	add("nproc", a.NProc, b.NProc)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go", a.GoVersion, b.GoVersion)
	return d
}

// compareMain prints the relative change of every metric two run records
// share, or "not comparable" when their host stamps differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
	}
	fmt.Print(compareRecords(recs[0], recs[1]))
	return 0
}

func compareRecords(old, cur record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (dirty=%v) -> %s (dirty=%v)\n", cur.Workload,
		old.Stamp.Revision, old.Stamp.Modified, cur.Stamp.Revision, cur.Stamp.Modified)
	if old.Workload != cur.Workload {
		fmt.Fprintf(&b, "not comparable: workload %s vs %s\n", old.Workload, cur.Workload)
		return b.String()
	}
	if d := hostDiff(old.Stamp, cur.Stamp); len(d) > 0 {
		fmt.Fprintf(&b, "not comparable: host differs (%s)\n", strings.Join(d, "; "))
		return b.String()
	}
	names := make([]string, 0, len(cur.Report))
	for n := range cur.Report {
		if _, ok := old.Report[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		o, c := old.Report[n], cur.Report[n]
		delta := "n/a"
		if o.Value != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(c.Value-o.Value)/o.Value)
		}
		fmt.Fprintf(&b, "  %-36s %14.6g -> %14.6g %-9s %s\n", n, o.Value, c.Value, c.Unit, delta)
	}
	return b.String()
}
