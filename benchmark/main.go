// Command benchmark is the repository's one benchmark of the metadata
// plane: four named workloads, the end-to-end metrics BENCHMARK.json
// gates, and a traced run that reports per-layer numbers. It drives the
// system only through the public functions of internal/clock, core,
// watch, persist and ring. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

const (
	// pinnedProcs is the GOMAXPROCS every run uses: load is generated
	// from this one process and the sandbox has two CPUs.
	pinnedProcs = 2
	// defaultSeed and defaultSeconds are the values BENCHMARK.json's
	// run_seconds and the README's numbers are for.
	defaultSeed    = 1
	defaultSeconds = 25
	// focusShare of a run's measured seconds goes to the named
	// workload; each of the other three runs as a reference slice on
	// refShare, so that every run reports every end-to-end metric.
	focusShare = 0.4
	refShare   = 0.2
	// refScale divides the durable-restart item count on a reference
	// slice: full-size cycles would not fit its seconds.
	refScale = 4
)

// buildDir holds everything a run writes: temp dirs and traces. It is
// inside the checkout, and tests point it at their own temp dir.
var buildDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	jsonOut  bool
	sizes    sizes
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of every workload's input generator")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds of one run")
	fs.IntVar(&o.trace, "trace", 0, "1 repeats each run with spans recorded and prints the per-layer table")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many full sets back to back and compare them")
	fs.BoolVar(&o.jsonOut, "json", false, "print one JSON document instead of tables")
	o.sizes = defaultSizes
	fs.IntVar(&o.sizes.ladderItems, "ladder-items", defaultSizes.ladderItems, "relay-ladder: watched items")
	fs.IntVar(&o.sizes.pipelines, "pipelines", defaultSizes.pipelines, "propagate-saturate and churn-read-mix: pipelines of 10 operators")
	fs.IntVar(&o.sizes.durableRegs, "durable-registries", defaultSizes.durableRegs, "durable-restart: registries of 10 items")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workload != "all" && !isWorkload(o.workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 || o.repeat < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(pinnedProcs)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	if o.workload != "all" {
		return driverRun(o, stdout, stderr)
	}
	return fullRun(o, stdout, stderr)
}

// fingerprint identifies the machine and build behind a result.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newFingerprint(o options) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g",
		fp.NProc, fp.GoMaxProcs, fp.GoVersion, fp.Commit, fp.Seed, fp.Seconds)
}

// metricValue is one reported number, in the shape BENCHMARK.json's
// driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run: the named workload at focus length plus the
// other three as reference slices.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Invalid   string                 `json:"invalid,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int64       `json:"samples"`
	MeasuredS map[string]float64     `json:"measured_s"`
	Failures  []string               `json:"failures,omitempty"`

	vals   map[string]float64
	traces []traceFile
}

var runners = map[string]func(sliceConfig) (*sliceResult, error){
	"relay-ladder":       runRelayLadder,
	"propagate-saturate": runPropagateSaturate,
	"churn-read-mix":     runChurnReadMix,
	"durable-restart":    runDurableRestart,
}

// runOnce runs focus at focusShare of the seconds and every other
// workload as a reference slice, in the fixed order of the workloads
// table, and merges what they measured.
func runOnce(o options, focus string, traced bool) (*runResult, error) {
	rr := &runResult{
		Workload:  focus,
		Traced:    traced,
		Metrics:   make(map[string]metricValue),
		Samples:   make(map[string]int64),
		MeasuredS: make(map[string]float64),
		vals:      make(map[string]float64),
	}
	var spanNs, wallNs float64
	for _, w := range workloads {
		cfg := sliceConfig{seconds: o.seconds * refShare, seed: o.seed, sizes: o.sizes, setups: 1}
		if w.Name == focus {
			cfg.seconds = o.seconds * focusShare
			cfg.setups = 3
		} else {
			cfg.sizes.durableRegs = max(o.sizes.durableRegs/refScale, 1)
		}
		if traced {
			cfg.tr = newTracer()
		}
		// Each slice starts from a collected heap, so one slice's
		// garbage is not the next one's GC work.
		runtime.GC()
		debug.FreeOSMemory()
		res, err := runners[w.Name](cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rr.vals["setup_s"] += res.setupS
		rr.Attempted += res.attempted
		rr.Failed += res.nfailed.Load()
		rr.MeasuredS[w.Name] = res.measuredS
		for _, f := range res.failures {
			rr.Failures = append(rr.Failures, w.Name+": "+f)
		}
		if res.invalid != "" && w.Name == focus {
			rr.Invalid = res.invalid
		}
		for k, v := range res.vals {
			rr.vals[k] = v
		}
		for k, v := range res.samples {
			rr.Samples[k] = v
		}
		if w.Name == focus {
			rr.Samples["setup_s"] = res.setups
		}
		if tf := cfg.tr.file(w.Name); tf != nil {
			rr.traces = append(rr.traces, *tf)
			spanNs += float64(len(tf.Spans)) * spanCostNs()
			wallNs += res.measuredS * 1e9
		}
	}
	rr.Correct = rr.Failed == 0
	rr.vals["bench.failed_share"] = safeDiv(float64(rr.Failed), float64(rr.Attempted))
	if traced {
		rr.vals["bench.trace_overhead_share"] = safeDiv(spanNs, wallNs)
		for _, d := range layerMetrics {
			v, ok := rr.vals[d.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
			}
			rr.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	} else {
		for _, d := range e2eMetrics {
			v, ok := rr.vals[d.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			rr.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	return rr, nil
}

// driverRun is the `--workload <name>` form BENCHMARK.json's command
// takes: one run, tables for a reader, and as the last line of standard
// output the one JSON object the driver parses.
func driverRun(o options, stdout, stderr io.Writer) int {
	fp := newFingerprint(o)
	rr, err := runOnce(o, o.workload, o.trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if o.jsonOut {
		writeDocument(stdout, fp, []*runResult{rr})
	} else {
		fmt.Fprintf(stdout, "# %s\n", fp)
		printRun(stdout, rr)
	}
	if o.trace == 1 {
		path := tracePath(o.workload, true)
		if err := writeTrace(path, rr.traces); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if !o.jsonOut {
			fmt.Fprintf(stdout, "trace written to %s\n", path)
		}
	}
	if !o.jsonOut {
		line, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rr.Correct, rr.Attempted, rr.Failed, rr.Metrics})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !rr.Correct {
		for _, f := range rr.Failures {
			fmt.Fprintf(stderr, "benchmark: FAILED %s\n", f)
		}
		return 1
	}
	return 0
}

// document is the -json schema: the fingerprint and every run, each run
// in the same shape as the driver line plus sample counts and measured
// seconds, so results of two commits can be diffed mechanically.
type document struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Runs        []*runResult `json:"runs"`
}

func writeDocument(w io.Writer, fp fingerprint, runs []*runResult) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(document{fp, runs}) // stdout; nothing to do about a failed write
}

// printRun prints one run's metrics by name and unit: the gated
// end-to-end metrics and the ungated whole-workload figures on an
// untraced run, every per-layer metric on a traced one.
func printRun(w io.Writer, rr *runResult) {
	kind := "end-to-end"
	if rr.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "## %s — %s\n", rr.Workload, kind)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	row := func(name, unit, note string) {
		if c, ok := rr.Samples[name]; ok {
			note = fmt.Sprintf("n=%d %s", c, note)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", name, rr.vals[name], unit, note)
	}
	if rr.Traced {
		for _, d := range layerMetrics {
			row(d.Name, d.Unit, "")
		}
	} else {
		for _, d := range reported() {
			note := fmt.Sprintf("bound %.0f%%", d.Bound*100)
			if d.Bound == 0 {
				note = "ungated"
			}
			if d.home != "" && d.home != rr.Workload {
				note += " (reference slice)"
			}
			row(d.Name, d.Unit, note)
		}
	}
	tw.Flush()
	if rr.Traced {
		printLayerSums(w, rr)
	}
	verdict := "correct"
	if !rr.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "oracle: %s — attempted %d, failed %d, failed_share %.3g\n",
		verdict, rr.Attempted, rr.Failed, safeDiv(float64(rr.Failed), float64(rr.Attempted)))
	if rr.Invalid != "" {
		fmt.Fprintf(w, "INVALID RUN: %s\n", rr.Invalid)
	}
	var ms []string
	for _, wl := range workloads {
		ms = append(ms, fmt.Sprintf("%s %.1fs", wl.Name, rr.MeasuredS[wl.Name]))
	}
	fmt.Fprintf(w, "measured: %s\n", strings.Join(ms, ", "))
}

// printLayerSums shows the per-layer parts against the end-to-end
// figure they should add up to.
func printLayerSums(w io.Writer, rr *runResult) {
	l, e := rr.vals, rr.vals
	fmt.Fprintf(w, "watch: hub_lag %.1f + upstream_hop %.1f + downstream_hop %.1f + unexplained %.1f = visible_p50_us %.1f\n",
		l["watch.hub_lag_us"], l["watch.upstream_hop_us"], l["watch.downstream_hop_us"], l["watch.unexplained_us"], e["visible_p50_us"])
	replayMs := l["persist.replay_ms"]
	fmt.Fprintf(w, "persist: decode_checkpoint %.1f + replay %.1f + restore %.1f = recovery_ms %.1f\n",
		l["persist.decode_checkpoint_ms"], replayMs, l["persist.restore_ms"], e["recovery_ms"])
	for _, t := range rr.traces {
		fmt.Fprintf(w, "spans of %s (%d recorded, %d dropped), self time by layer:\n", t.Workload, len(t.Spans), t.Dropped)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, r := range t.Layers {
			fmt.Fprintf(tw, "  %s\t%s\tspans %d\tcalls %d\tself %.3f ms\tp50 %.0f ns/call\n",
				r.Layer, r.Name, r.Spans, r.Calls, float64(r.SelfNs)/1e6, r.P50Ns)
		}
		tw.Flush()
	}
}
