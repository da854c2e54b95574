package core

import (
	"reflect"
	"sync/atomic"
)

// Stats are the framework's self-metrics. They power the scalability
// experiments: every handler creation/removal, value computation,
// periodic update, and trigger propagation is counted so the cost of
// the metadata subsystem itself can be measured.
// Every field is a counter (atomic.Int64, or shardedCounter on a hot
// path) or a level; Snapshot copies field i into its own field i.
type Stats struct {
	// HandlersCreated counts first subscriptions that built a handler.
	HandlersCreated atomic.Int64
	// HandlersRemoved counts handlers removed after the last
	// unsubscription.
	HandlersRemoved atomic.Int64
	// SharedSubscriptions counts subscriptions that reused an
	// existing handler (Section 2.1's sharing).
	SharedSubscriptions atomic.Int64
	// ComputeCalls counts metadata value computations, across all
	// mechanisms. Sharded: it sits on the on-demand read path.
	ComputeCalls shardedCounter
	// OnDemandComputes counts computations by on-demand handlers.
	// Sharded: it sits on the on-demand read path.
	OnDemandComputes shardedCounter
	// PeriodicUpdates counts window-boundary updates by periodic
	// handlers.
	PeriodicUpdates atomic.Int64
	// TriggeredUpdates counts recomputations by triggered handlers.
	TriggeredUpdates atomic.Int64
	// TriggerNotifications counts dependency-update notifications
	// delivered along the inverted dependency graph.
	TriggerNotifications atomic.Int64
	// EventsFired counts developer-fired events (Section 3.2.3).
	EventsFired atomic.Int64
	// IncludeTraversals counts depth-first inclusion steps performed
	// during subscriptions.
	IncludeTraversals atomic.Int64
	// ScopeBatches counts batched tick dispatches: one per dependency
	// scope per window boundary on the batched update pipeline.
	ScopeBatches atomic.Int64
	// BatchedTicks counts periodic ticks executed inside scope
	// batches; BatchedTicks/ScopeBatches is the mean batch size.
	BatchedTicks atomic.Int64
	// PlanCacheHits counts propagations served from a cached
	// propagation plan (allocation-free walk).
	PlanCacheHits atomic.Int64
	// PlanCacheMisses counts propagations that had to (re)build their
	// plan — first use of a seed set or use after a structural change.
	PlanCacheMisses atomic.Int64
	// Timeouts counts computations abandoned at their deadline
	// (published as ErrComputeTimeout).
	Timeouts atomic.Int64
	// LateResults counts fenced-off results: a timed-out compute that
	// eventually finished but whose publication was rejected by the
	// generation fence because a newer value (or the timeout error) had
	// already been published.
	LateResults atomic.Int64
	// BreakerTrips counts circuit-breaker trips into quarantine.
	BreakerTrips atomic.Int64
	// BreakerRecoveries counts breakers closed by a successful probe.
	BreakerRecoveries atomic.Int64
	// ShedTicks counts sheddable scope batches dropped by updater
	// backpressure because a newer batch for the same scope superseded
	// them while queued.
	ShedTicks atomic.Int64
	// QueueDepth is the current number of tasks queued in the updater
	// (bounded pool updaters only; 0 for inline).
	QueueDepth level
	// QueueHighWater is the maximum QueueDepth observed.
	QueueHighWater level
	// MemoHits counts on-demand reads served from a dependency-stamped
	// memo without recomputing (WithMemoizedOnDemand + Definition.Pure).
	// Sharded: it is the memoized read hot path.
	MemoHits shardedCounter
	// MemoMisses counts memoized on-demand reads that had to recompute:
	// first read, a dependency published a new version, a structural
	// change bumped the write epoch, or the item was quarantined.
	MemoMisses atomic.Int64
	// CoalescedReads counts on-demand reads that waited on another
	// reader's in-flight compute instead of computing themselves
	// (singleflight). The leader's compute is counted once in
	// OnDemandComputes regardless of how many readers it served.
	CoalescedReads atomic.Int64
	// DeltaFires counts delta-aggregate refreshes served by the O(1)
	// pair-apply path without re-running the full fold. Sharded: it is
	// the delta propagation hot path.
	DeltaFires shardedCounter
	// DeltaFallbacks counts delta-aggregate refreshes that ran the
	// exact full-fold fallback (see the fallback matrix in delta.go);
	// on delta-off envs every aggregate refresh counts here. Sharded:
	// it sits on the same refresh path as DeltaFires.
	DeltaFallbacks shardedCounter
	// DeltaRebases counts scheduled re-folds that bound float drift
	// (DeltaSpec.RebaseEvery); counted separately from DeltaFallbacks
	// so the hit rate distinguishes policy from inability. Sharded:
	// same refresh path.
	DeltaRebases shardedCounter
	// Migrations counts live mechanism migrations performed by
	// Registry.Migrate (identity no-ops excluded).
	Migrations atomic.Int64
	// Watchers is the current number of registered watchers across all
	// hubs on this env.
	Watchers level
	// Wakeups counts sweep passes of the watch hub that processed at
	// least one dirty item — the fan-out events that actually ran.
	Wakeups atomic.Int64
	// CoalescedWakeups counts publications absorbed into an already
	// pending wakeup: the item was still marked dirty, or the sweeper
	// kick found one armed. Sharded: it sits on the publish hot path.
	CoalescedWakeups shardedCounter
	// ShedNotifies counts watch notifications dropped or overwritten by
	// a slow consumer's full ring (coalesce-to-latest overflow). Watch
	// delivery is sheddable in the PR 4 sense: publishers never block
	// on watchers. Sharded: overflow can burst across sweeper and
	// subscriber goroutines.
	ShedNotifies shardedCounter
	// CatchUps counts snapshot-then-delta catch-ups delivered to late
	// or lagging joiners (one Peek snapshot, then deltas only).
	CatchUps atomic.Int64
	// MuxSessions is the current number of live mux transport sessions.
	MuxSessions level
	// MuxFrames counts batched binary frames written to mux streams
	// (heartbeats excluded); MuxEvents/MuxFrames is the amortization
	// factor — events delivered per write.
	MuxFrames atomic.Int64
	// MuxEvents counts watch events carried inside mux frames.
	MuxEvents atomic.Int64
	// MuxHeartbeats counts heartbeat frames written to mux streams.
	MuxHeartbeats atomic.Int64
	// RelayEvents counts upstream events a relay republished into its
	// local fan-out hub.
	RelayEvents atomic.Int64
	// RelayResumes counts upstream reconnect-with-resume cycles a relay
	// completed (each costs at most one Snapshot frame per behind
	// watch, not a re-subscribe storm).
	RelayResumes atomic.Int64
	// WALRecords counts structural ops appended to the durability WAL
	// (internal/persist) since process start.
	WALRecords atomic.Int64
	// WALBytes is the size of the current WAL segment; it resets to 0
	// when a checkpoint truncates the log.
	WALBytes level
	// Checkpoints counts checkpoints written (manual, periodic, and the
	// post-recovery barrier checkpoint).
	Checkpoints atomic.Int64
	// CheckpointAt is the clock instant of the last checkpoint (0 before
	// the first, or after one at instant 0: see Checkpoints).
	CheckpointAt level
	// Recoveries counts recoveries performed by persist.Open (0 on a
	// fresh start, 1 after loading a checkpoint and/or WAL).
	Recoveries atomic.Int64
	// RestoredStale counts the items persist.Open left serving their
	// checkpointed value in the quarantine-backed stale-serving state.
	RestoredStale atomic.Int64
}

// level is a Stats field holding a current level rather than a running
// count: Snapshot.Sub keeps the newer snapshot's value instead of
// differencing it.
type level struct{ atomic.Int64 }

// noteQueueDelta adjusts the updater queue-depth gauge by delta (+1 per
// enqueue, -1 per dequeue) and maintains the high-water mark. Tracking
// the gauge with deltas instead of absolute Store calls keeps it
// consistent under concurrency: with Store, an enqueue publishing depth
// n can be overwritten by a racing dequeue publishing the older n-1,
// leaving the gauge (and a high-water read between the two) regressed.
// An Add-based gauge always converges to the true depth regardless of
// interleaving.
func (s *Stats) noteQueueDelta(delta int64) {
	depth := s.QueueDepth.Add(delta)
	for {
		hw := s.QueueHighWater.Load()
		if depth <= hw || s.QueueHighWater.CompareAndSwap(hw, depth) {
			return
		}
	}
}

// Snapshot is an immutable copy of the counters, field for field.
type Snapshot struct {
	HandlersCreated      int64
	HandlersRemoved      int64
	SharedSubscriptions  int64
	ComputeCalls         int64
	OnDemandComputes     int64
	PeriodicUpdates      int64
	TriggeredUpdates     int64
	TriggerNotifications int64
	EventsFired          int64
	IncludeTraversals    int64
	ScopeBatches         int64
	BatchedTicks         int64
	PlanCacheHits        int64
	PlanCacheMisses      int64
	Timeouts             int64
	LateResults          int64
	BreakerTrips         int64
	BreakerRecoveries    int64
	ShedTicks            int64
	QueueDepth           int64
	QueueHighWater       int64
	MemoHits             int64
	MemoMisses           int64
	CoalescedReads       int64
	DeltaFires           int64
	DeltaFallbacks       int64
	DeltaRebases         int64
	Migrations           int64
	Watchers             int64
	Wakeups              int64
	CoalescedWakeups     int64
	ShedNotifies         int64
	CatchUps             int64
	MuxSessions          int64
	MuxFrames            int64
	MuxEvents            int64
	MuxHeartbeats        int64
	RelayEvents          int64
	RelayResumes         int64
	WALRecords           int64
	WALBytes             int64
	Checkpoints          int64
	CheckpointAt         int64
	Recoveries           int64
	RestoredStale        int64
}

// Snapshot returns a copy of the current counter values.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	src, dst := reflect.ValueOf(s).Elem(), reflect.ValueOf(&out).Elem()
	for i := range dst.NumField() {
		dst.Field(i).SetInt(src.Field(i).Addr().Interface().(interface{ Load() int64 }).Load())
	}
	return out
}

// Sub returns the per-counter difference s - t, for measuring a window
// of activity between two snapshots. A level keeps s's value.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	d, tv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&t).Elem()
	for i, level := range statsLevels {
		if !level {
			f := d.Field(i)
			f.SetInt(f.Int() - tv.Field(i).Int())
		}
	}
	return s
}

// statsLevels marks the Stats fields that are Levels, by position; built
// once, because reflecting on a Stats value per Sub boxes 9.5 KB.
var statsLevels = func() []bool {
	t := reflect.TypeFor[Stats]()
	levels := make([]bool, t.NumField())
	for i := range levels {
		levels[i] = t.Field(i).Type == reflect.TypeFor[level]()
	}
	return levels
}()

// MeanBatchSize returns the mean number of periodic ticks per scope
// batch in the snapshot, or 0 when no batches ran.
func (s Snapshot) MeanBatchSize() float64 { return ratio(s.BatchedTicks, s.ScopeBatches) }

// PlanHitRate returns the fraction of propagations served from a
// cached plan, or 0 when no propagation ran.
func (s Snapshot) PlanHitRate() float64 {
	return ratio(s.PlanCacheHits, s.PlanCacheHits+s.PlanCacheMisses)
}

// MemoHitRate returns the fraction of memoized on-demand reads served
// from the stamped memo without recomputing, or 0 when no memoized
// reads ran.
func (s Snapshot) MemoHitRate() float64 { return ratio(s.MemoHits, s.MemoHits+s.MemoMisses) }

// DeltaHitRate returns the fraction of delta-aggregate refreshes
// served by the O(1) pair-apply path, or 0 when no aggregate refresh
// ran. Rebases count toward the total (they are refreshes the delta
// path did not serve) but are reported separately in the snapshot.
func (s Snapshot) DeltaHitRate() float64 {
	return ratio(s.DeltaFires, s.DeltaFires+s.DeltaFallbacks+s.DeltaRebases)
}

// EventsPerFrame returns the mean number of watch events per mux frame
// (events delivered per write), or 0 when no frame was written.
func (s Snapshot) EventsPerFrame() float64 { return ratio(s.MuxEvents, s.MuxFrames) }

// ratio returns n/d, or 0 for an empty denominator.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// UpdateWork returns the total number of maintenance operations in the
// snapshot — the cost metric of the scalability experiments.
func (s Snapshot) UpdateWork() int64 {
	return s.PeriodicUpdates + s.TriggeredUpdates + s.OnDemandComputes
}
