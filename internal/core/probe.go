package core

import "sync/atomic"

// probe is monitoring code a metadata item needs inside the node's
// processing path (Section 4.4.1): for example, the input-rate item
// needs the node to count incoming elements. Probes are activated when
// the item's handler is created by addMetadata and deactivated when the
// handler is removed, so inactive items impose (almost) no cost on the
// element path.
type probe interface {
	// Activate enables the probe. Activations nest: a probe shared by
	// several items stays active until every activation is released.
	Activate()
	// Deactivate releases one activation.
	Deactivate()
}

// Probes combines several probes into one.
type Probes []probe

// Activate implements probe.
func (p Probes) Activate() {
	for _, q := range p {
		q.Activate()
	}
}

// Deactivate implements probe.
func (p Probes) Deactivate() {
	for _, q := range p {
		q.Deactivate()
	}
}

// Counter is an activation-gated event counter. The hot path calls Inc
// (or Add); the metadata handler calls Take at each window boundary to
// read and reset the count. All methods are safe for concurrent use.
type Counter struct {
	active atomic.Int32
	n      atomic.Int64
}

// Activate implements probe.
func (c *Counter) Activate() { c.active.Add(1) }

// Deactivate implements probe. Deactivating resets the count once the
// last activation is released so a later re-activation starts fresh.
func (c *Counter) Deactivate() {
	if c.active.Add(-1) == 0 {
		c.n.Store(0)
	}
}

// Active reports whether at least one activation is held.
func (c *Counter) Active() bool { return c.active.Load() > 0 }

// Inc counts one event if the probe is active.
func (c *Counter) Inc() {
	if c.Active() {
		c.n.Add(1)
	}
}

// Add counts delta events if the probe is active.
func (c *Counter) Add(delta int64) {
	if c.Active() {
		c.n.Add(delta)
	}
}

// Read returns the current count without resetting it.
func (c *Counter) Read() int64 { return c.n.Load() }

// Take returns the current count and resets it to zero.
func (c *Counter) Take() int64 { return c.n.Swap(0) }
