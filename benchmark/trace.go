package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one op
// share Op; Parent is the index of the enclosing span, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the workloads call the layers
// through one code path whether or not spans are recorded.
//
// begin/end nest through a stack and are for the goroutine that sequences
// the op. async is for calls that arrive on other goroutines (the variant
// store decorator under the harness worker pool): it parents the span to the
// current op's root instead of touching the stack.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	stack []int
	op    int // id of the op in flight
	root  int // root span of the op in flight, -1 between ops
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of op id.
func (t *tracer) beginOp(name string, id int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op = id
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: -1, Op: id})
	t.root = len(t.spans) - 1
	t.stack = append(t.stack[:0], t.root)
	return t.root
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin or beginOp returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	if id == t.root {
		t.root = -1
	}
}

// async opens a span under the current op's root from any goroutine and
// returns the function that closes it.
func (t *tracer) async(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.root, Op: t.op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id].End = t.now()
		t.mu.Unlock()
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (async spans from a worker pool), so the covered part is the length
// of the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one span name's aggregate in a trace.
type layerRow struct {
	Name   string
	Count  int
	SelfNs int64
}

// layerTable aggregates self time by span name, largest first (ties by
// name, so the table order repeats).
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.SelfNs += self[i]
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfNs != rows[j].SelfNs {
			return rows[i].SelfNs > rows[j].SelfNs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
