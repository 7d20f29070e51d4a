package main

import "time"

// span is one traced call into a layer: its name, the span that caused
// it, the simulated rank it ran for (-1 for none) and its interval in
// microseconds since the tracer started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Rank    int     `json:"rank"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the spans of one traced pass in memory; they are written
// out with the run record when the benchmark ends. Spans are opened and
// closed from one goroutine; intervals measured on rank goroutines are
// added afterwards with add.
type tracer struct {
	epoch time.Time
	spans []span
}

// noSpan is the parent of a root span.
const noSpan = -1

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, rank int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Rank: rank, StartUS: t.us(time.Now())})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) { t.spans[id].EndUS = t.us(time.Now()) }

// add records a span measured elsewhere and returns its id.
func (t *tracer) add(name string, parent, rank int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Rank: rank, StartUS: t.us(start), EndUS: t.us(end)})
	return len(t.spans) - 1
}

// seconds sums the self time of every span with the given name under
// root: each span's duration less the part its children cover.
func (t *tracer) seconds(name string, root int) float64 {
	under := t.descendants(root)
	child := make(map[int]float64)
	for _, s := range t.spans {
		if under[s.ID] && s.Parent != noSpan {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	var us float64
	for _, s := range t.spans {
		if under[s.ID] && s.Name == name {
			us += s.EndUS - s.StartUS - child[s.ID]
		}
	}
	return us / 1e6
}

// descendants returns the ids of root and every span below it. Parents
// always precede their children, so one forward sweep suffices.
func (t *tracer) descendants(root int) map[int]bool {
	in := map[int]bool{root: true}
	for _, s := range t.spans[root:] {
		if in[s.Parent] {
			in[s.ID] = true
		}
	}
	return in
}
