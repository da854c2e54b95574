package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeSizes is the reduced N every smoke test runs at.
var smokeSizes = sizes{ladderItems: 24, pipelines: 8, durableRegs: 30}

// TestWorkloadSmoke runs each workload for 200 ms at reduced N behind
// the same code path as a full run; each must pass its oracle with no
// failed operation. (TestDriverOutput covers the traced path; the tests
// stay short because the repository's timing-sensitive suites run beside
// this package.)
func TestWorkloadSmoke(t *testing.T) {
	buildDir = t.TempDir()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runners[w.Name](sliceConfig{seconds: 0.2, seed: 7, sizes: smokeSizes, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if failed := res.nfailed.Load(); failed != 0 || res.attempted < 1 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, failed, res.failures)
			}
			for _, d := range reported() {
				if d.home != w.Name {
					continue
				}
				if v, ok := res.vals[d.Name]; !ok || !(v > 0) {
					t.Errorf("%s = %v (measured: %v), want a positive value", d.Name, v, ok)
				}
			}
		})
	}
}

// TestDriverOutput runs the command the way BENCHMARK.json's driver
// does and checks the last line of standard output against the
// contract: exactly four keys, every end-to-end metric untraced, every
// per-layer metric traced.
func TestDriverOutput(t *testing.T) {
	buildDir = t.TempDir()
	for _, tc := range []struct {
		trace string
		want  []string
	}{{"0", e2eNames()}, {"1", layerNames()}} {
		var out, errb bytes.Buffer
		code := realMain([]string{
			"--workload", "churn-read-mix", "--seed", "3", "--seconds", "0.5", "--trace", tc.trace,
			"--ladder-items", "24", "--pipelines", "8", "--durable-registries", "120",
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v\n%s", tc.trace, err, lines[len(lines)-1])
		}
		if len(got) != 4 {
			t.Errorf("trace %s: %d keys in the result line, want correct/attempted/failed/metrics", tc.trace, len(got))
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.want))
		}
		for _, name := range tc.want {
			if _, ok := metrics[name]; !ok {
				t.Errorf("trace %s: metric %s missing", tc.trace, name)
			}
		}
		if string(got["correct"]) != "true" || string(got["failed"]) != "0" {
			t.Errorf("trace %s: correct=%s failed=%s", tc.trace, got["correct"], got["failed"])
		}
		if _, err := os.Stat(tracePath("churn-read-mix", true)); (err == nil) != (tc.trace == "1") {
			t.Errorf("trace %s: trace file present = %v", tc.trace, err == nil)
		}
	}
}

func e2eNames() []string {
	var names []string
	for _, d := range e2eMetrics {
		names = append(names, d.Name)
	}
	return names
}

func layerNames() []string {
	var names []string
	for _, d := range layerMetrics {
		names = append(names, d.Name)
	}
	return names
}

// TestManifestMatches keeps BENCHMARK.json and the metric tables in
// step: the file must list exactly the workloads and metrics the
// program reports.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Workloads, workloads) {
		t.Errorf("workloads differ:\n file %v\n code %v", m.Workloads, workloads)
	}
	strip := func(ds []e2eDef) []e2eDef {
		out := append([]e2eDef(nil), ds...)
		for i := range out {
			out[i].home = ""
		}
		return out
	}
	if !reflect.DeepEqual(m.EndToEnd, strip(e2eMetrics)) {
		t.Errorf("end_to_end differs:\n file %v\n code %v", m.EndToEnd, strip(e2eMetrics))
	}
	var layers []layerDef
	for _, d := range layerMetrics {
		d.moves, d.home = "", ""
		layers = append(layers, d)
	}
	if !reflect.DeepEqual(m.PerLayer, layers) {
		t.Errorf("per_layer differs:\n file %v\n code %v", m.PerLayer, layers)
	}
}

// TestSeededGeneration: two generations with one seed produce the same
// operation sequence, another seed a different one — for every
// workload's generator.
func TestSeededGeneration(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"relay-ladder":          func(s int64) any { return newLadderSchedule(64, 0.1, s).order },
		"propagate-saturate":    func(s int64) any { return zipfOps(s, 200)[:4096] },
		"churn-read-mix.writer": func(s int64) any { return churnCycles(s, 40, 4096) },
		"churn-read-mix.reader": func(s int64) any { return readOps(s, [readKinds]int{50, 20, 20}, 4096) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(11), gen(11)) {
			t.Errorf("%s: two generations with seed 11 differ", name)
		}
		if reflect.DeepEqual(gen(11), gen(12)) {
			t.Errorf("%s: seeds 11 and 12 generate the same sequence", name)
		}
	}
}

// TestLadderScheduleInverts checks the schedule arithmetic the client
// oracle rests on: every publication is found again from (item, k).
func TestLadderScheduleInverts(t *testing.T) {
	s := newLadderSchedule(7, 0.03, 5)
	count := make([]int64, s.items)
	for g := int64(0); g < s.pubs; g++ {
		item := s.order[g%s.items]
		if got := s.pubIndex(item, count[item]); got != g {
			t.Fatalf("publication %d is item %d's #%d, pubIndex says %d", g, item, count[item], got)
		}
		count[item]++
		step, due, _, ok := s.locate(g)
		if !ok || s.stepOfDue(due) != step {
			t.Fatalf("publication %d: locate step %d, stepOfDue(%d) = %d", g, step, due, s.stepOfDue(due))
		}
	}
	for item, n := range count {
		if got := s.finalCount(int64(item)); got != n {
			t.Errorf("item %d published %d times, finalCount says %d", item, n, got)
		}
	}
	if _, _, _, ok := s.locate(s.pubs); ok {
		t.Error("locate accepts a publication past the end")
	}
}

func TestPercentileAndWindows(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}

	// Three windows; a stall inflates only the middle one, and the
	// median over windows ignores it.
	w := newSampleWindows(3, 100, 4)
	for _, s := range []struct {
		t int64
		v float64
	}{{0, 1}, {50, 3}, {100, 900}, {199, 1000}, {200, 2}, {299, 4}, {300, 7}, {-1, 7}} {
		w.add(s.t, s.v)
	}
	if w.count() != 6 {
		t.Errorf("filed %d samples, want 6 (out-of-phase samples dropped)", w.count())
	}
	if got := w.perWindow(0.5); !reflect.DeepEqual(got, []float64{2, 950, 3}) {
		t.Errorf("per-window medians %v", got)
	}
	if got := median(w.perWindow(0.5)); got != 3 {
		t.Errorf("median over windows = %v, want 3", got)
	}

	c := newWindowCounter(2, 5e8)
	c.add(1, 10)
	c.add(6e8, 30)
	c.add(2e9, 99)
	if got := c.rates(); !reflect.DeepEqual(got, []float64{20, 60}) {
		t.Errorf("window rates %v, want [20 60]", got)
	}
	if n, width := splitWindows(3_500_000_000); n != 3 || width != 3_500_000_000/3 {
		t.Errorf("splitWindows = %d x %d", n, width)
	}
	if n, _ := splitWindows(200_000_000); n != 1 {
		t.Errorf("a short phase is one window, got %d", n)
	}
}

// TestSelfTime: a layer's self time is its span minus the part of its
// interval its children cover — overlapping children once, children
// reaching outside the parent clipped.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Layer: "bench", Name: "root", N: 1},
		{ID: 2, Parent: 1, Start: 10, End: 40, Layer: "core", Name: "a", N: 1},
		{ID: 3, Parent: 1, Start: 30, End: 60, Layer: "core", Name: "b", N: 1},  // overlaps a by 10
		{ID: 4, Parent: 1, Start: 90, End: 130, Layer: "core", Name: "c", N: 1}, // 30 outside the parent
		{ID: 5, Parent: 2, Start: 15, End: 20, Layer: "clock", Name: "d", N: 1},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 40, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	rows := layerTable(spans)
	var core int64
	for _, r := range rows {
		if r.Layer == "core" {
			core += r.SelfNs
		}
	}
	if core != 95 {
		t.Errorf("core self time %d, want 95", core)
	}
}

// TestTracerNilIsNoOp: the untraced run calls the tracer through a nil
// pointer.
func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("core", "x", 0, 1)
	tr.end(id, 1)
	if id != 0 || tr.file("x") != nil {
		t.Errorf("nil tracer recorded something: span id %d", id)
	}
}

func TestCountingListener(t *testing.T) {
	body := strings.Repeat("x", 5000)
	srv, err := serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, body)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	resp, err := http.Post(srv.url, "text/plain", strings.NewReader(strings.Repeat("y", 3000)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(got) != body {
		t.Fatalf("read %d bytes, err %v", len(got), err)
	}
	if n := srv.ln.conns.Load(); n != 1 {
		t.Errorf("%d connections accepted, want 1", n)
	}
	// The client can hold the last bytes before the server goroutine
	// has counted them, so give the counter a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for srv.ln.written.Load() < 5000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Headers ride along, so the counts exceed the bodies.
	if w := srv.ln.written.Load(); w < 5000 || w > 5000+1000 {
		t.Errorf("%d bytes written, want the 5000-byte body plus headers", w)
	}
	if r := srv.ln.read.Load(); r < 3000 || r > 3000+1000 {
		t.Errorf("%d bytes read, want the 3000-byte body plus headers", r)
	}
}

// TestCompareSets: a metric moving more than its bound between sets is
// unresolved; an invalid run marks its rows invalid, not unresolved.
func TestCompareSets(t *testing.T) {
	mk := func(scale float64, invalid string) map[string]*runResult {
		set := make(map[string]*runResult)
		for _, w := range workloads {
			rr := &runResult{Workload: w.Name, Invalid: invalid, vals: make(map[string]float64)}
			for _, d := range reported() {
				rr.vals[d.Name] = 100 * scale
			}
			set[w.Name] = rr
		}
		return set
	}
	var out bytes.Buffer
	if !compareSets(&out, []map[string]*runResult{mk(1, ""), mk(1.01, "")}) {
		t.Errorf("1%% apart reported unresolved:\n%s", out.String())
	}
	out.Reset()
	if compareSets(&out, []map[string]*runResult{mk(1, ""), mk(1.5, "")}) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("50%% apart reported ok:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(&out, []map[string]*runResult{mk(1, ""), mk(1.5, "host stalled")}) || !strings.Contains(out.String(), "invalid") {
		t.Errorf("an invalid run must not fail the comparison:\n%s", out.String())
	}
}
