package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/kserve"
)

// Serving load shape. Keys are zipf(zipfS) over the present k-mers, with
// absentPerBatch of every batchKeys keys drawn from k-mers the spectrum
// does not hold. The closed loop gets closedShare of the run; the open
// loop the rest, at openRate requests per second — about a quarter of
// what the closed loop sustains on a 2-core host, low enough that its p99
// repeats from run to run.
const (
	batchKeys      = 64
	absentPerBatch = 8
	keyBatches     = 2048
	zipfS          = 1.1
	closedShare    = 0.4
	openRate       = 300.0
	warmupRequests = 256
)

// keyset is the pre-generated serving load: key batches, the counts the
// database holds for them, and their /batch request bodies.
type keyset struct {
	keys   [][]uint64
	want   [][]uint32
	bodies [][]byte
}

func makeKeys(db *kcount.Database, enc *dna.Encoding, seed int64) keyset {
	rng := rand.New(rand.NewSource(seed ^ 0x6b657973))
	n := len(db.Entries)
	perm := rng.Perm(n) // zipf rank -> entry, so hot keys are spread over the key space
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	mask := uint64(1)<<(2*uint(db.K)) - 1
	var ks keyset
	for b := 0; b < keyBatches; b++ {
		keys := make([]uint64, batchKeys)
		want := make([]uint32, batchKeys)
		absent := rng.Perm(batchKeys)[:absentPerBatch]
		for i := range keys {
			e := db.Entries[perm[z.Uint64()]]
			keys[i], want[i] = e.Key, e.Count
		}
		for _, i := range absent {
			for {
				k := rng.Uint64() & mask
				if db.Get(k) == 0 {
					keys[i], want[i] = k, 0
					break
				}
			}
		}
		var body strings.Builder
		body.WriteString(`{"kmers":[`)
		for i, k := range keys {
			if i > 0 {
				body.WriteByte(',')
			}
			body.WriteByte('"')
			body.WriteString(kmerString(enc, db.K, k))
			body.WriteByte('"')
		}
		body.WriteString("]}")
		ks.keys = append(ks.keys, keys)
		ks.want = append(ks.want, want)
		ks.bodies = append(ks.bodies, []byte(body.String()))
	}
	return ks
}

// server is kserve behind its HTTP handler on a loopback listener.
type server struct {
	svc  *kserve.Service
	http *http.Server
	url  string
	done chan error
}

func startServer(db *kcount.Database) (*server, error) {
	svc, err := kserve.New(db, kserve.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: kserve.NewHandler(svc)}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, waits for the serve loop to return, and
// drains the service.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout here leaves only idle loopback connections
	<-s.done
	s.svc.Close()
}

// client sends /batch requests over at most nproc connections.
type client struct {
	http *http.Client
	url  string
	ks   keyset
}

func newClient(url string, ks keyset) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 10 * time.Second}, url: url + "/batch", ks: ks}
}

func (c *client) close() { c.http.CloseIdleConnections() }

type batchResponse struct {
	Results []struct {
		Count   uint32 `json:"count"`
		Present bool   `json:"present"`
	} `json:"results"`
}

// batch sends key batch i and checks every count against the database.
// It returns "" on success and the reason otherwise; a non-200 answer,
// including 429, is a failure.
func (c *client) batch(i int) string {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(c.ks.bodies[i]))
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // the status alone decides
		return fmt.Sprintf("status %d", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return err.Error()
	}
	return checkCounts(c.ks.keys[i], c.ks.want[i], br)
}

// checkCounts compares one /batch answer with the database's counts.
func checkCounts(keys []uint64, want []uint32, br batchResponse) string {
	if len(br.Results) != len(want) {
		return fmt.Sprintf("%d results for %d keys", len(br.Results), len(want))
	}
	for j, got := range br.Results {
		if got.Count != want[j] || got.Present != (want[j] > 0) {
			return fmt.Sprintf("key %#x: count %d present %v, want %d", keys[j], got.Count, got.Present, want[j])
		}
	}
	return ""
}

// loadStats collects one loop's outcome.
type loadStats struct {
	mu        sync.Mutex
	requests  int64
	failures  []string
	failed    int64
	latencyMS []float64
	lateMS    []float64
}

func (l *loadStats) add(msg string, lat, late time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	if msg != "" {
		l.failed++
		if len(l.failures) < 5 {
			l.failures = append(l.failures, msg)
		}
	}
	l.latencyMS = append(l.latencyMS, 1e3*lat.Seconds())
	l.lateMS = append(l.lateMS, 1e3*late.Seconds())
}

// closedLoop runs nproc callers that each send their next batch as soon
// as the previous one is answered, for dur or until n requests, whichever
// ends first (n <= 0: no request cap).
func (c *client) closedLoop(dur time.Duration, n int64) *loadStats {
	var (
		st   loadStats
		next atomic.Int64
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if n > 0 && i >= n {
					return
				}
				t0 := time.Now()
				msg := c.batch(int(i) % len(c.ks.bodies))
				st.add(msg, time.Since(t0), 0)
			}
		}()
	}
	wg.Wait()
	return &st
}

// openLoop sends requests on a fixed schedule of rate per second for dur,
// over nproc connections. Each latency is timed from the request's
// scheduled send, so a stall also charges the requests queued behind it;
// how late each send left is recorded separately.
func (c *client) openLoop(rate float64, dur time.Duration) *loadStats {
	var (
		st   loadStats
		next atomic.Int64
		wg   sync.WaitGroup
	)
	n := int64(rate * dur.Seconds())
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late := time.Since(due)
				msg := c.batch(int(i) % len(c.ks.bodies))
				st.add(msg, time.Since(due), late)
			}
		}()
	}
	wg.Wait()
	return &st
}

// serveState is serve-zipf after set-up: the counted input, its served
// spectrum, the running server and the key batches.
type serveState struct {
	count *countState
	srv   *server
	ks    keyset
}

func (s *serveState) close() {
	if s != nil && s.srv != nil {
		s.srv.close()
	}
}

// newServeState counts the input with the workload's pipeline, checks the
// spectrum, starts kserve over it and warms it up. The counting run and
// the warm-up requests are checked operations: their outcome goes into
// setupOps.
func newServeState(w *workload, opt options) (*serveState, setupOps, error) {
	var ops setupOps
	cs, err := newCountState(w.count, opt.seed, opt.out)
	if err != nil {
		return nil, ops, err
	}
	res, err := cs.run(cs.cfg)
	ops.attempted++
	if msg := cs.check(res, err); msg != "" {
		ops.failed++
		ops.notes = append(ops.notes, "counting the served spectrum: "+msg)
	}
	s := &serveState{count: cs, ks: makeKeys(cs.oracle.db, cs.cfg.Enc, opt.seed)}
	if s.srv, err = startServer(cs.oracle.db); err != nil {
		return nil, ops, err
	}
	c := newClient(s.srv.url, s.ks)
	defer c.close()
	warm := c.closedLoop(time.Minute, warmupRequests)
	ops.attempted += warm.requests
	ops.failed += warm.failed
	ops.notes = append(ops.notes, warm.failures...)
	return s, ops, nil
}

// setupOps tallies the checked operations of one set-up.
type setupOps struct {
	attempted, failed int64
	notes             []string
}

func serveEndToEnd(w *workload, opt options) (*result, error) {
	r := &result{}
	var (
		st    *serveState
		ops   setupOps
		walls []float64
	)
	defer func() { st.close() }()
	for i := 0; i < setupRepeats; i++ {
		st.close()
		st = nil
		runtime.GC()
		t0 := time.Now()
		s, o, err := newServeState(w, opt)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		st, ops = s, o
	}
	r.input = st.count.info()
	r.set("setup_s", median(walls), unitS)
	r.attempted, r.failed = ops.attempted, ops.failed
	for _, n := range ops.notes {
		r.notes = append(r.notes, "FAIL: set-up: "+n)
	}

	// Only the served database and the key batches stay live.
	st.count.reads, st.count.fq = nil, nil
	c := newClient(st.srv.url, st.ks)
	defer c.close()
	runtime.GC()
	heap := startHeapSampler()
	closedDur := time.Duration(closedShare * float64(opt.seconds))
	t0 := time.Now()
	closed := c.closedLoop(closedDur, 0)
	elapsed := time.Since(t0).Seconds()
	open := c.openLoop(openRate, opt.seconds-closedDur)
	r.set("peak_heap_mib", heap.stopMiB(), unitMiB)

	for _, l := range []*loadStats{closed, open} {
		r.attempted += l.requests
		r.failed += l.failed
		for _, f := range l.failures {
			r.notes = append(r.notes, "FAIL: "+f)
		}
	}
	lookups := ratio(float64(closed.requests*batchKeys), elapsed)
	r.set("throughput_per_s", lookups, unitPerS)
	r.set("latency_p50_ms", median(open.latencyMS), unitMS)
	// Report-only numbers: the same two under their per-workload names, the
	// open loop's tail and lateness, and the load actually sent.
	r.set("lookups_per_s", lookups, unitPerS)
	r.set("lookup_p50_ms", median(open.latencyMS), unitMS)
	r.set("lookup_p99_ms", quantile(open.latencyMS, 0.99), unitMS)
	r.set("loadgen.late_p99_ms", quantile(open.lateMS, 0.99), unitMS)
	r.set("open_loop_requests", float64(open.requests), unitCount)
	r.set("open_loop_offered_per_s", openRate*batchKeys, unitPerS)
	r.set("closed_loop_requests", float64(closed.requests), unitCount)
	r.set("error_ratio", ratio(float64(r.failed), float64(r.attempted)), unitRatio)
	r.samples = map[string][]float64{"setup_s": walls, "open_loop_latency_ms": open.latencyMS, "closed_loop_latency_ms": closed.latencyMS}
	return r, nil
}
