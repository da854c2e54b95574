package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"text/tabwriter"
)

// tracePath names the file a traced run's spans go to.
func tracePath(focus string, single bool) string {
	if single {
		return filepath.Join(buildDir, "trace.json")
	}
	return filepath.Join(buildDir, "trace-"+focus+".json")
}

// fullRun is the default form: every workload in turn, untraced; with
// -trace 1 each again traced, with the tracing overhead; with -repeat n
// the whole set n times and a comparison of the sets against the
// bounds.
func fullRun(o options, stdout, stderr io.Writer) int {
	fp := newFingerprint(o)
	if !o.jsonOut {
		fmt.Fprintf(stdout, "# %s\n", fp)
	}
	var all []*runResult
	sets := make([]map[string]*runResult, o.repeat)
	code := 0
	for set := range sets {
		sets[set] = make(map[string]*runResult)
		for _, traced := range []bool{false, true}[:1+o.trace] {
			for _, w := range workloads {
				rr, err := runOnce(o, w.Name, traced)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %v\n", err)
					return 1
				}
				all = append(all, rr)
				if !rr.Correct {
					code = 1
					for _, f := range rr.Failures {
						fmt.Fprintf(stderr, "benchmark: FAILED %s\n", f)
					}
				}
				if !o.jsonOut {
					if o.repeat > 1 {
						fmt.Fprintf(stdout, "# set %d of %d\n", set+1, o.repeat)
					}
					printRun(stdout, rr)
				}
				if !traced {
					sets[set][w.Name] = rr
					continue
				}
				path := tracePath(w.Name, false)
				if err := writeTrace(path, rr.traces); err != nil {
					fmt.Fprintf(stderr, "benchmark: %v\n", err)
					return 1
				}
				if !o.jsonOut {
					fmt.Fprintf(stdout, "trace written to %s\n", path)
					printOverhead(stdout, sets[set][w.Name], rr)
				}
			}
		}
	}
	if o.jsonOut {
		writeDocument(stdout, fp, all)
	} else if o.repeat > 1 && !compareSets(stdout, sets) {
		code = 1
	}
	return code
}

// printOverhead prints, for each whole-workload metric the workload
// owns, the traced value over the untraced one.
func printOverhead(w io.Writer, plain, traced *runResult) {
	fmt.Fprintf(w, "bench.trace_overhead_share (traced / untraced) on %s:\n", plain.Workload)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, d := range reported() {
		if d.home != plain.Workload {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t/ %.6g\t= %.3f\n", d.Name, traced.vals[d.Name], plain.vals[d.Name],
			safeDiv(traced.vals[d.Name], plain.vals[d.Name]))
	}
	tw.Flush()
}

// compareSets prints, per (metric, workload), every set's value, the
// relative difference between the extremes, the bound, and a verdict;
// it reports whether every gated pairing resolved within its bound. A
// row whose runs include an invalid one (the host was measured) is
// marked invalid, not unresolved; the ungated figures are shown for the
// record.
func compareSets(w io.Writer, sets []map[string]*runResult) bool {
	fmt.Fprintf(w, "## repeatability over %d sets\n", len(sets))
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tworkload\tvalues\tdiff\tbound\tverdict\n")
	ok := true
	for _, wl := range workloads {
		for _, d := range reported() {
			lo, hi := math.Inf(1), math.Inf(-1)
			vals, invalid := "", false
			for _, set := range sets {
				rr := set[wl.Name]
				v := rr.vals[d.Name]
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				vals += fmt.Sprintf("%.6g ", v)
				invalid = invalid || rr.Invalid != ""
			}
			diff := safeDiv(hi-lo, lo)
			verdict := "ok"
			switch {
			case d.Bound == 0:
				verdict = "ungated"
			case invalid:
				verdict = "invalid"
			case diff > d.Bound:
				verdict = "unresolved"
				ok = false
			}
			home := ""
			if d.home == wl.Name {
				home = " *"
			}
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(tw, "%s%s\t%s\t%s\t%.1f%%\t%s\t%s\n", d.Name, home, wl.Name, vals, diff*100, bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "(* = the workload that measures the metric at full length)")
	return ok
}
