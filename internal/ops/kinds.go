// Package ops implements the operator library of the stream processing
// system: sources, filters, maps, unions, window operators, the
// sliding-window join with exchangeable sweep-area modules, windowed
// aggregation, a sampling/load-shedding operator, and sinks.
//
// Every operator registers the metadata definitions it can provide —
// the addMetadata step of Section 4.4.1 — with its node registry:
// static items (schema, element size), measured items with monitoring
// probes activated only while the item is in use (input/output rate,
// selectivity, CPU usage), and derived items maintained by triggered
// handlers (average rates).
package ops

import "repro/internal/core"

// Well-known metadata kinds provided by the operator library. Source,
// operator, and sink metadata follow the classification of Figure 1.
const (
	// KindSchema is the static output schema of a node.
	KindSchema = core.Kind("schema")
	// KindElementSize is the static estimated element size in bytes.
	KindElementSize = core.Kind("elementSize")
	// KindCountIn is the cumulative number of input elements
	// (on-demand; monitored only while included).
	KindCountIn = core.Kind("countIn")
	// KindCountOut is the cumulative number of output elements.
	KindCountOut = core.Kind("countOut")
	// KindInputRate is the measured input rate, updated periodically
	// (elements per time unit).
	KindInputRate = core.Kind("inputRate")
	// KindOutputRate is the measured output rate, updated
	// periodically.
	KindOutputRate = core.Kind("outputRate")
	// KindAvgInputRate is the running average of the measured input
	// rate, refreshed by a triggered handler whenever KindInputRate
	// publishes (the dependency example of Sections 1 and 3.2.3).
	KindAvgInputRate = core.Kind("avgInputRate")
	// KindAvgOutputRate is the running average of the measured output
	// rate.
	KindAvgOutputRate = core.Kind("avgOutputRate")
	// KindSelectivity is the measured output/input ratio per update
	// window (the input/output ratio example of Section 2.3).
	KindSelectivity = core.Kind("selectivity")
	// KindMeasuredCPU is the measured CPU usage: simulated work units
	// per time unit, updated periodically.
	KindMeasuredCPU = core.Kind("measuredCPUUsage")
	// KindStateSize is the number of elements held in operator state
	// (on-demand).
	KindStateSize = core.Kind("stateSize")
	// KindMemUsage is the measured memory usage in bytes (on-demand;
	// for the join it aggregates the sweep-area modules, Section 4.5).
	KindMemUsage = core.Kind("memUsage")
	// KindWindowSize is the current window size of a window operator
	// (on-demand; changes are announced via EventWindowChanged).
	KindWindowSize = core.Kind("windowSize")
	// KindDropProbability is the sampler's current drop probability.
	KindDropProbability = core.Kind("dropProbability")
	// kindCountDropped is the cumulative number of dropped elements
	// at a sampler.
	kindCountDropped = core.Kind("countDropped")
	// KindQoSLatency is a sink's static Quality-of-Service latency
	// budget (query-level metadata).
	KindQoSLatency = core.Kind("qosLatency")
	// KindQoSPriority is a sink's static scheduling priority.
	KindQoSPriority = core.Kind("qosPriority")
	// kindSize is an exchangeable module's element count.
	kindSize = core.Kind("size")
	// KindImplType is the static implementation type of a node or
	// module (e.g. "hash", "list"), per Figure 1's operator metadata.
	KindImplType = core.Kind("implType")
	// KindFanout is the number of consumers currently fed by the node
	// — the "frequency of reuse by subquery sharing" query-level
	// metadata of Figure 1 (on-demand from the live topology).
	KindFanout = core.Kind("fanout")
)

// Events fired by operators (Section 3.2.3's developer-fired
// notifications).
const (
	// EventWindowChanged fires when a window operator's size is
	// adjusted (e.g. by the adaptive resource manager of Section 3.3).
	EventWindowChanged = "windowSizeChanged"
	// eventStateChanged fires when an operator announces a relevant
	// state change to dependent triggered handlers.
	eventStateChanged = "stateChanged"
)
