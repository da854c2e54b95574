package pipes

import (
	"fmt"

	"repro/internal/persist"
)

// Durable metadata plane: an opt-in WAL + checkpoint layer under the
// system's registries. With durability open, every structural operation
// (subscribe, unsubscribe, migrate, codec-backed define) is journaled,
// the full plane is checkpointed periodically, and a restarted process
// recovers its topology with each checkpointed item serving its
// pre-crash last-good value tagged ErrStale until the probe machinery
// recomputes it.

// Re-exported durability types.
type (
	// SyncPolicy selects when WAL appends reach stable storage.
	SyncPolicy = persist.SyncPolicy
	// RecoveryStats reports what OpenDurability found and rebuilt.
	RecoveryStats = persist.RecoveryStats
)

// WAL fsync policies.
const (
	// SyncAlways fsyncs every WAL append (default; loses at most the op
	// in flight on a crash).
	SyncAlways = persist.SyncAlways
	// SyncNone leaves WAL flushing to the OS (faster; a crash may drop
	// recent structural ops, recovery still replays a clean prefix).
	SyncNone = persist.SyncNone
)

// DurabilityOptions tunes the durable plane. The zero value selects
// SyncAlways with a checkpoint every 64 structural ops.
type DurabilityOptions struct {
	Sync SyncPolicy
	// CheckpointEvery is the automatic checkpoint interval in WAL
	// records (0 = default 64, negative = manual checkpoints only).
	CheckpointEvery int
}

// WithDurability configures the system to persist its metadata plane
// under dir. Recovery does not happen here — registries only exist once
// the query graph is built — so build the graph, then call
// OpenDurability before subscribing. A system configured with
// durability arms the circuit breaker automatically (recovery serves
// checkpointed values through quarantine) unless WithBreaker was given
// explicitly.
func WithDurability(dir string, opts DurabilityOptions) SystemOption {
	return func(s *System) {
		s.durDir = dir
		s.durOpts = opts
	}
}

// OpenDurability recovers any persisted plane state from the configured
// directory into the current graph's registries and starts journaling.
// Call it after the query graph is fully built and before subscribing:
// recovered subscriptions re-pin their items, and new subscriptions are
// journaled from here on.
func (s *System) OpenDurability() (*RecoveryStats, error) {
	if s.durDir == "" {
		return nil, fmt.Errorf("pipes: durability not configured (use WithDurability)")
	}
	if s.plane != nil {
		return nil, fmt.Errorf("pipes: durability already open")
	}
	every := s.durOpts.CheckpointEvery
	switch {
	case every == 0:
		every = 64
	case every < 0:
		every = 0
	}
	plane, rs, err := persist.Open(s.env, s.durDir,
		persist.Options{Sync: s.durOpts.Sync, CheckpointEvery: every}, s.registries()...)
	if err != nil {
		return nil, err
	}
	s.plane = plane
	return rs, nil
}
