package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer, seen from the benchmark's
// side of the call. Times are ns since the tracer's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Op     int64  `json:"op"`     // shared by all spans of one publication / cycle
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is how many calls the span covers when a tight loop is recorded
	// as one span (a tick's publication burst); 1 otherwise.
	N int64 `json:"n"`
}

// maxSpans bounds one workload's in-memory trace; past it spans are
// counted as dropped instead of recorded.
const maxSpans = 400_000

// tracer records spans in memory. A nil *tracer is the untraced run:
// every method is a no-op on it, so workloads call it unconditionally
// and the untraced path pays one nil check.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (0 when untraced or full).
func (t *tracer) begin(layer, name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: start, N: 1})
	return id
}

// end closes span id; n is the number of calls it covered.
func (t *tracer) end(id int32, n int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = end
	s.N = n
	t.mu.Unlock()
}

// add records a span whose endpoints were observed elsewhere (the
// asynchronous stages of the watch path); start and end are absolute.
func (t *tracer) add(layer, name string, parent int32, op int64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), N: 1,
	})
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children. Overlapping children
// are merged first, so time two children share is subtracted once, and
// child time outside the parent's interval is ignored.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Spans  int64   `json:"spans"`
	Calls  int64   `json:"calls"`
	SelfNs int64   `json:"self_ns"`
	P50Ns  float64 `json:"p50_ns_per_call"`
}

// layerTable aggregates self time by (layer, name).
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	type key struct{ layer, name string }
	agg := make(map[key]*layerRow)
	per := make(map[key][]float64)
	for _, s := range spans {
		if s.End == 0 {
			continue // never closed (the run ended inside it)
		}
		k := key{s.Layer, s.Name}
		r := agg[k]
		if r == nil {
			r = &layerRow{Layer: s.Layer, Name: s.Name}
			agg[k] = r
		}
		r.Spans++
		r.Calls += s.N
		r.SelfNs += self[s.ID]
		per[k] = append(per[k], float64(s.End-s.Start)/float64(max(s.N, 1)))
	}
	rows := make([]layerRow, 0, len(agg))
	for k, r := range agg {
		r.P50Ns = median(per[k])
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// traceFile is the on-disk shape of one workload's trace.
type traceFile struct {
	Workload string     `json:"workload"`
	Dropped  int64      `json:"dropped_spans"`
	Layers   []layerRow `json:"layers"`
	Spans    []span     `json:"spans"`
}

// file returns the recorded spans with their per-layer table, nil on
// the untraced run.
func (t *tracer) file(workload string) *traceFile {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	return &traceFile{Workload: workload, Dropped: t.dropped, Layers: layerTable(spans), Spans: spans}
}

var (
	spanCostOnce sync.Once
	spanCost     float64
)

// spanCostNs is the measured cost of recording one span, the unit of
// bench.trace_overhead_share on a single traced run.
func spanCostNs() float64 {
	spanCostOnce.Do(func() {
		tr := newTracer()
		const n = 20000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tr.end(tr.begin("bench", "calibrate", 0, 0), 1)
		}
		spanCost = float64(time.Since(t0).Nanoseconds()) / n
	})
	return spanCost
}

// writeTrace writes the traces of one run as a JSON array, one element
// per workload slice.
func writeTrace(path string, files []traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(files); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
