package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// sliceConfig is what one workload slice is asked to run.
type sliceConfig struct {
	// seconds is the slice's measured time.
	seconds float64
	// seed drives every random choice of the slice's input generator.
	seed int64
	// sizes are the item counts (flags; the defaults are the ones
	// BENCHMARK.json's numbers are for).
	sizes sizes
	// setups is how many times the slice sets its system up; the
	// reported set-up time is the median, the last build is measured.
	setups int
	// tr is nil on the untraced run.
	tr *tracer
}

// sizes are the workload item counts.
type sizes struct {
	ladderItems int // relay-ladder: triggered items = watches
	pipelines   int // propagate-saturate / churn-read-mix: pipelines of 10 operators
	durableRegs int // durable-restart: registries of 10 chained items
}

var defaultSizes = sizes{ladderItems: 1024, pipelines: 400, durableRegs: 10000}

// sliceResult is what one workload slice measured.
type sliceResult struct {
	workload  string
	setupS    float64 // median set-up time of the slice
	setups    int64   // set-ups behind that median
	measuredS float64 // wall time of the measured phase
	attempted int64
	// vals holds what the slice measured, by metric name (some only on
	// traced runs); samples the sample count behind a percentile or
	// median.
	vals    map[string]float64
	samples map[string]int64
	// invalid is non-empty when the host, not the program, was
	// measured (the open-loop generator ran late).
	invalid  string
	failMu   sync.Mutex
	failures []string
	nfailed  atomic.Int64
}

func newSliceResult(workload string) *sliceResult {
	return &sliceResult{
		workload: workload,
		vals:     make(map[string]float64),
		samples:  make(map[string]int64),
	}
}

// fail counts one failed operation and keeps the first few messages.
func (r *sliceResult) fail(format string, args ...any) {
	r.nfailed.Add(1)
	r.failMu.Lock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}
