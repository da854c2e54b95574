package core

import (
	"sync/atomic"
	"unsafe"
)

// shardedCounter is a monotonic int64 counter striped over
// cache-line-padded cells. The hot value-read path increments framework
// counters on every access; a single shared atomic.Int64 turns those
// increments into cache-line ping-pong between cores and bounds
// parallel read throughput (visible in BenchmarkValueReadParallel at
// -cpu 8). Striping spreads the increments over independent cache
// lines; Load sums the stripes, so totals stay exact — only the
// ordering of concurrent increments across stripes is unobservable,
// which a counter never exposes anyway.
//
// The zero value is ready to use, like atomic.Int64, and the Add/Load
// method set matches it so Stats fields can switch representation
// without touching call sites.

// counterStripes is the number of stripes; must be a power of two.
// 16 stripes * 64 bytes = 1KiB per counter, paid only for the few
// hottest Stats fields.
const counterStripes = 16

// counterStripe pads one cell to a full cache line so neighbouring
// stripes never share a line (false sharing would defeat the striping).
type counterStripe struct {
	v atomic.Int64
	_ [56]byte
}

// shardedCounter is the striped counter. See the package comment above.
type shardedCounter struct {
	stripes [counterStripes]counterStripe
}

// stripeIndex picks this goroutine's stripe from the address of a stack
// local: goroutine stacks are distinct allocations of at least 2KiB, so
// kilobyte granularity separates concurrent goroutines onto different
// stripes without any per-goroutine state or runtime hooks. The pointer
// is reduced to uintptr immediately and never stored, so the local does
// not escape and the index costs no allocation.
func stripeIndex() uintptr {
	var b byte
	return (uintptr(unsafe.Pointer(&b)) >> 10) & (counterStripes - 1)
}

// Add adds n to the counter.
func (c *shardedCounter) Add(n int64) {
	c.stripes[stripeIndex()].v.Add(n)
}

// Load returns the current total. Concurrent Adds may or may not be
// included, exactly as with a plain atomic counter.
func (c *shardedCounter) Load() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}
