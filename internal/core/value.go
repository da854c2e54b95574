package core

import (
	"errors"
	"fmt"
)

// Value is the value of a metadata item. Most runtime statistics are
// float64; schema-like static metadata may be any type.
type Value = any

// Errors returned by the metadata framework.
var (
	// ErrUnknownItem reports a subscription to a metadata item the
	// registry has no definition for.
	ErrUnknownItem = errors.New("core: unknown metadata item")
	// ErrCycle reports a cyclic metadata dependency discovered during
	// the inclusion traversal.
	ErrCycle = errors.New("core: cyclic metadata dependency")
	// ErrItemInUse reports an attempt to redefine a metadata item
	// whose handler currently exists.
	ErrItemInUse = errors.New("core: metadata item is in use")
	// ErrUnsubscribed reports a read through a released subscription.
	ErrUnsubscribed = errors.New("core: subscription already released")
	// errNoValue reports that a handler has no value yet.
	errNoValue = errors.New("core: metadata value not available")
	// ErrBadSelector reports a dependency selector that matched no
	// registry (e.g. Input(2) on a unary operator).
	ErrBadSelector = errors.New("core: dependency selector matched no registry")
	// errNotNumeric reports a Float conversion of a non-numeric value.
	errNotNumeric = errors.New("core: metadata value is not numeric")
	// ErrComputePanic reports that user-supplied compute, Build, or
	// Resolve code panicked. The framework converts such panics into
	// errors surfaced on Value()/Subscribe so a faulty metadata item
	// cannot wedge component locks or kill updater workers.
	ErrComputePanic = errors.New("core: metadata computation panicked")
	// ErrComputeTimeout reports that a metadata computation exceeded
	// its configured deadline (WithComputeDeadline or the definition's
	// override). The computation is abandoned — its goroutine is fenced
	// by a generation counter so a late result can never overwrite a
	// newer publication — and the worker slot is released.
	ErrComputeTimeout = errors.New("core: metadata computation timed out")
	// ErrStale tags a value served by a quarantined handler: the
	// circuit breaker tripped and the item now serves its last-good
	// value instead of recomputing. Reads return (lastGood, *StaleError);
	// errors.Is(err, ErrStale) identifies the condition and the
	// *StaleError carries the quarantine instant, the live age, and the
	// failure that tripped the breaker, so degrade-aware consumers can
	// keep operating on the stale value.
	ErrStale = errors.New("core: serving stale value, item quarantined")
	// ErrNotMigratable reports a Registry.Migrate call the item cannot
	// satisfy: no AdaptSpec on its definition, a target mechanism the
	// spec provides no compute for, a static or delta-aggregate item, or
	// a handler type the framework does not own.
	ErrNotMigratable = errors.New("core: metadata item is not migratable")
	// ErrRestored is the default quarantine cause of an item restored
	// from a checkpoint: the served value is the pre-crash last-good,
	// not yet recomputed by this process. It surfaces wrapped in the
	// *StaleError tagging restored reads until the recovery probe's
	// first successful recompute.
	ErrRestored = errors.New("core: value restored from checkpoint, not yet recomputed")
)

// Float converts a numeric metadata value to float64.
func Float(v Value) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int8:
		return float64(x), nil
	case int16:
		return float64(x), nil
	case int32:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint:
		return float64(x), nil
	case uint8:
		return float64(x), nil
	case uint16:
		return float64(x), nil
	case uint32:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	case nil:
		return 0, errNoValue
	default:
		return 0, fmt.Errorf("%w: %T", errNotNumeric, v)
	}
}

// MustFloat is Float for values known to be numeric; it panics
// otherwise. Intended for compute closures over trusted dependencies.
func MustFloat(v Value) float64 {
	f, err := Float(v)
	if err != nil {
		panic(err)
	}
	return f
}
