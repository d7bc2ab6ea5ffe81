package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, start and end (ns since
// the tracer's origin), the index of the span that caused it (-1 for the
// root) and the frame index it served as the request id (-1 when the
// call covers many frames).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans in memory; they are written out only when the
// run ends. A nil *tracer records nothing, which is how the untraced
// twin of a traced run shares its code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indexes
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string, req int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotals sums span durations by name.
func layerTotals(spans []span) map[string]time.Duration {
	dur := map[string]time.Duration{}
	for _, s := range spans {
		dur[s.Name] += time.Duration(s.End - s.Start)
	}
	return dur
}

// checkSelfTime is the traced run's accounting check: summed self time
// cannot exceed the traced window's wall time on every processor.
func checkSelfTime(spans []span, wall time.Duration, procs int) error {
	var total int64
	for _, v := range selfTimes(spans) {
		if v < 0 {
			return fmt.Errorf("negative self time %d ns", v)
		}
		total += v
	}
	if limit := int64(wall) * int64(procs); total > limit {
		return fmt.Errorf("summed self time %v exceeds wall %v × GOMAXPROCS %d", time.Duration(total), wall, procs)
	}
	return nil
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
