package pipes

import "repro/internal/core"

// Delta-propagation surface: metadata aggregates over many dependency
// edges can declare an incremental (Combine/Retract) form and be
// maintained in O(1) per upstream publication instead of refolding the
// whole fan-in (see internal/core/delta.go for the exactness
// contract). Non-invertible aggregates (DeltaMin) declare Retract=nil
// and transparently fall back to the exact full fold.
type (
	// DeltaSpec declares an aggregate's incremental form.
	DeltaSpec = core.DeltaSpec
	// DeltaAcc is the aggregate's fixed-size accumulator.
	DeltaAcc = core.DeltaAcc
)

var (
	// NewDeltaAggregate builds the handler for a Definition that
	// declares Deps and a Delta spec: a triggered aggregate maintained
	// through the delta channel when possible, by full fold otherwise.
	NewDeltaAggregate = core.NewDeltaAggregate
	// DeltaSum is an incrementally maintained sum over the fan-in.
	DeltaSum = core.DeltaSum
	// DeltaCount is an incrementally maintained dependency count.
	DeltaCount = core.DeltaCount
	// DeltaMean is an incrementally maintained mean.
	DeltaMean = core.DeltaMean
	// DeltaVar is an incrementally maintained population variance.
	DeltaVar = core.DeltaVar
	// DeltaMin tracks the minimum; it is not invertible (Retract=nil)
	// and always refolds on updates, kept for uniform declaration.
	DeltaMin = core.DeltaMin
)
