// Package monitor implements the monitoring and profiling consumers of
// Section 1's fourth motivating application: a time-series recorder
// that subscribes to metadata items and samples them on the clock
// (e.g. the monitoring tool of Section 2.5 plotting estimated vs.
// measured CPU usage of a join), and inventory/profiling helpers that
// expose which metadata is available and included per node — metadata
// discovery per Section 2.2.
package monitor

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
)

// sample is one recorded metadata value.
type sample struct {
	// At is the sampling time.
	At clock.Time
	// Value is the metadata value at that time.
	Value float64
	// Err records a failed read (Value is 0 then).
	Err error
}

// series is the recorded history of one tracked item.
type series struct {
	// Name labels the series.
	Name string
	// Samples holds the recorded values in time order.
	Samples []sample
}

// Last returns the most recent sample (zero sample if empty).
func (s *series) Last() sample {
	if len(s.Samples) == 0 {
		return sample{}
	}
	return s.Samples[len(s.Samples)-1]
}

// Mean returns the mean of the successfully recorded values.
func (s *series) Mean() float64 {
	sum, n := 0.0, 0
	for _, sm := range s.Samples {
		if sm.Err == nil {
			sum += sm.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Max returns the maximum recorded value.
func (s *series) Max() float64 {
	max := 0.0
	for i, sm := range s.Samples {
		if sm.Err == nil && (i == 0 || sm.Value > max) {
			max = sm.Value
		}
	}
	return max
}

// tracked pairs a series with its subscription.
type tracked struct {
	name string
	sub  *core.Subscription
}

// Recorder samples subscribed metadata items at a fixed period. It is
// itself a metadata consumer: tracking an item subscribes to it (and
// so includes its dependency closure), and Close unsubscribes.
type Recorder struct {
	env    *core.Env
	every  clock.Duration
	ticker *clock.Ticker

	mu      sync.Mutex
	order   []string
	tracks  map[string]*tracked
	series  map[string]*series
	stopped bool
}

// NewRecorder creates a recorder sampling every period time units.
func NewRecorder(env *core.Env, period clock.Duration) *Recorder {
	r := &Recorder{
		env:    env,
		every:  period,
		tracks: make(map[string]*tracked),
		series: make(map[string]*series),
	}
	r.ticker = clock.NewTicker(env.Clock(), period, func(now clock.Time) { r.Sample(now) })
	return r
}

// Track subscribes to the item and starts recording it under name.
func (r *Recorder) Track(name string, reg *core.Registry, kind core.Kind) error {
	sub, err := reg.Subscribe(kind)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tracks[name]; dup {
		sub.Unsubscribe()
		return fmt.Errorf("monitor: series %q already tracked", name)
	}
	r.order = append(r.order, name)
	r.tracks[name] = &tracked{name: name, sub: sub}
	r.series[name] = &series{Name: name}
	return nil
}

// Sample records one value per tracked item at the given time.
func (r *Recorder) Sample(now clock.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	for _, name := range r.order {
		tr := r.tracks[name]
		v, err := tr.sub.Float()
		r.series[name].Samples = append(r.series[name].Samples, sample{At: now, Value: v, Err: err})
	}
}

// Series returns the recorded series by name, or nil.
func (r *Recorder) Series(name string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[name]
}

// Names returns the tracked series names in tracking order.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// WriteCSV emits the recorded series as a time-aligned CSV table.
func (r *Recorder) WriteCSV(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := fmt.Fprintf(w, "time,%s\n", strings.Join(r.order, ",")); err != nil {
		return err
	}
	if len(r.order) == 0 {
		return nil
	}
	n := len(r.series[r.order[0]].Samples)
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(r.order)+1)
		row = append(row, fmt.Sprint(r.series[r.order[0]].Samples[i].At))
		for _, name := range r.order {
			ss := r.series[name].Samples
			if i < len(ss) {
				row = append(row, fmt.Sprintf("%g", ss[i].Value))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Close stops sampling and releases all subscriptions.
func (r *Recorder) Close() {
	r.ticker.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.stopped = true
	for _, tr := range r.tracks {
		tr.sub.Unsubscribe()
	}
}

// nodeInventory describes the metadata surface of one node: what it
// can provide and what is currently provided.
type nodeInventory struct {
	// Node is the node's name and id label.
	Node string
	// Type is the node type.
	Type graph.NodeType
	// Available lists every defined item kind.
	Available []core.Kind
	// Included lists the kinds currently having handlers.
	Included []core.Kind
}

// Inventory walks the graph and reports each node's metadata surface —
// the discovery facility of Section 2.2.
func Inventory(g *graph.Graph) []nodeInventory {
	var out []nodeInventory
	for _, n := range g.Nodes() {
		out = append(out, nodeInventory{
			Node:      n.Registry().ID(),
			Type:      n.Type(),
			Available: n.Registry().Available(),
			Included:  n.Registry().Included(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// FormatInventory renders the inventory as a fixed-width table.
func FormatInventory(inv []nodeInventory) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-9s %9s %9s  included items\n", "node", "type", "available", "included")
	for _, ni := range inv {
		kinds := make([]string, len(ni.Included))
		for i, k := range ni.Included {
			kinds[i] = string(k)
		}
		fmt.Fprintf(&b, "%-24s %-9s %9d %9d  %s\n",
			ni.Node, ni.Type, len(ni.Available), len(ni.Included), strings.Join(kinds, ","))
	}
	return b.String()
}

// stat is one label=value entry of a report line: the Snapshot field
// named field, or a ratio derived from the snapshot, printed with prec
// decimals.
type stat struct {
	label, field string
	ratio        func(core.Snapshot) float64
	prec         int
}

func count(label, field string) stat { return stat{label: label, field: field} }

func ratio(label string, prec int, f func(core.Snapshot) float64) stat {
	return stat{label: label, ratio: f, prec: prec}
}

// report is the one rendering of core.Stats, a line per group in this
// order. Every Snapshot field has exactly one entry
// (TestWriteStatsRendersEveryField): a counter is a Stats field, a
// Snapshot field and an entry here.
var report = []struct {
	group string
	stats []stat
}{
	{"maintenance", []stat{count("computes", "ComputeCalls"), count("onDemandComputes", "OnDemandComputes"),
		count("periodicUpdates", "PeriodicUpdates"), count("triggeredUpdates", "TriggeredUpdates"),
		count("notifications", "TriggerNotifications"), count("events", "EventsFired"),
		count("traversals", "IncludeTraversals"), count("sharedSubscriptions", "SharedSubscriptions")}},
	{"update pipeline", []stat{count("scopeBatches", "ScopeBatches"), count("batchedTicks", "BatchedTicks"),
		ratio("meanBatch", 1, core.Snapshot.MeanBatchSize), count("planHits", "PlanCacheHits"),
		count("planMisses", "PlanCacheMisses"), ratio("planHitRate", 3, core.Snapshot.PlanHitRate)}},
	{"degraded ops", []stat{count("timeouts", "Timeouts"), count("lateResults", "LateResults"),
		count("trips", "BreakerTrips"), count("recoveries", "BreakerRecoveries"), count("shedTicks", "ShedTicks"),
		count("queueDepth", "QueueDepth"), count("queueHighWater", "QueueHighWater")}},
	{"read path", []stat{count("memoHits", "MemoHits"), count("memoMisses", "MemoMisses"),
		ratio("memoHitRate", 3, core.Snapshot.MemoHitRate), count("coalescedReads", "CoalescedReads")}},
	{"delta path", []stat{count("deltaFires", "DeltaFires"), count("deltaFallbacks", "DeltaFallbacks"),
		count("deltaRebases", "DeltaRebases"), ratio("deltaHitRate", 3, core.Snapshot.DeltaHitRate)}},
	{"adaptive", []stat{count("migrations", "Migrations"), count("handlersCreated", "HandlersCreated"),
		count("handlersRemoved", "HandlersRemoved")}},
	{"watch hub", []stat{count("watchers", "Watchers"), count("wakeups", "Wakeups"),
		count("coalescedWakeups", "CoalescedWakeups"), count("shedNotifies", "ShedNotifies"), count("catchUps", "CatchUps")}},
	{"mux", []stat{count("sessions", "MuxSessions"), count("frames", "MuxFrames"), count("events", "MuxEvents"),
		count("heartbeats", "MuxHeartbeats"), ratio("eventsPerFrame", 1, core.Snapshot.EventsPerFrame)}},
	{"relay", []stat{count("events", "RelayEvents"), count("resumes", "RelayResumes")}},
	{"durability", []stat{count("walRecords", "WALRecords"), count("walBytes", "WALBytes"),
		count("checkpoints", "Checkpoints"), count("checkpointAt", "CheckpointAt"),
		count("recoveries", "Recoveries"), count("restoredStale", "RestoredStale")}},
}

// WriteStats renders a stats snapshot (or a window of one, from
// Snapshot.Sub) as the report: "group: label=value ..." per line.
func WriteStats(w io.Writer, s core.Snapshot) error {
	var b strings.Builder
	v := reflect.ValueOf(s)
	for _, line := range report {
		b.WriteString(line.group + ":")
		for _, st := range line.stats {
			if st.ratio != nil {
				fmt.Fprintf(&b, " %s=%.*f", st.label, st.prec, st.ratio(s))
			} else {
				fmt.Fprintf(&b, " %s=%d", st.label, v.FieldByName(st.field).Int())
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
