package ops

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/stream"
)

// sweepArea is an exchangeable join-state module (Section 4.5): the
// data structure storing one input's window contents. The join
// operator can be based on different implementations (lists, hash
// tables); each carries its own metadata registry so the join's
// memory-usage item can aggregate module metadata recursively.
type sweepArea interface {
	// Insert adds an element.
	Insert(el stream.Element)
	// PurgeBefore removes all elements whose validity ended at or
	// before t and returns how many were removed.
	PurgeBefore(t clock.Time) int
	// Probe calls emit for every stored element that time-overlaps el
	// and satisfies pred(stored, probe); it returns the number of
	// candidate comparisons performed (the simulated CPU cost).
	Probe(el stream.Element, pred func(stored stream.Tuple) bool, emit func(stored stream.Element)) int
	// Size returns the number of stored elements.
	Size() int
	// MemBytes returns the estimated memory footprint in bytes.
	MemBytes() int64
	// Registry returns the module's metadata registry.
	Registry() *core.Registry
}

// defineSweepAreaMetadata registers the module items every sweep area
// provides.
func defineSweepAreaMetadata(sa sweepArea, impl string) {
	r := sa.Registry()
	defineStaticImplType(r, impl)
	r.MustDefine(&core.Definition{
		Kind: kindSize,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				return float64(sa.Size()), nil
			}), nil
		},
	})
	r.MustDefine(&core.Definition{
		Kind: KindMemUsage,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				return float64(sa.MemBytes()), nil
			}), nil
		},
	})
}

// listSweepArea stores elements in arrival order and probes by linear
// scan. It is the nested-loops implementation type of Section 1's
// operator metadata example.
type listSweepArea struct {
	reg      *core.Registry
	elemSize int64

	mu  sync.Mutex
	els []stream.Element
}

// newListSweepArea creates a list-based sweep area. elemSize is the
// per-element memory estimate in bytes.
func newListSweepArea(env *core.Env, id string, elemSize int64) *listSweepArea {
	sa := &listSweepArea{reg: env.NewRegistry(id), elemSize: elemSize}
	defineSweepAreaMetadata(sa, "list")
	return sa
}

// Registry implements sweepArea.
func (sa *listSweepArea) Registry() *core.Registry { return sa.reg }

// Insert implements sweepArea.
func (sa *listSweepArea) Insert(el stream.Element) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.els = append(sa.els, el)
}

// PurgeBefore implements sweepArea.
func (sa *listSweepArea) PurgeBefore(t clock.Time) int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	kept := sa.els[:0]
	removed := 0
	for _, el := range sa.els {
		if el.End > t {
			kept = append(kept, el)
		} else {
			removed++
		}
	}
	// Clear the tail so purged elements are collectable.
	for i := len(kept); i < len(sa.els); i++ {
		sa.els[i] = stream.Element{}
	}
	sa.els = kept
	return removed
}

// Probe implements sweepArea.
func (sa *listSweepArea) Probe(el stream.Element, pred func(stream.Tuple) bool, emit func(stream.Element)) int {
	sa.mu.Lock()
	snapshot := make([]stream.Element, len(sa.els))
	copy(snapshot, sa.els)
	sa.mu.Unlock()
	comparisons := 0
	for _, stored := range snapshot {
		comparisons++
		if stored.Overlaps(el) && pred(stored.Tuple) {
			emit(stored)
		}
	}
	return comparisons
}

// Size implements sweepArea.
func (sa *listSweepArea) Size() int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return len(sa.els)
}

// MemBytes implements sweepArea.
func (sa *listSweepArea) MemBytes() int64 {
	return int64(sa.Size()) * sa.elemSize
}

// hashSweepArea partitions elements by a key function and probes only
// the matching bucket. It is the hash-based implementation type; the
// join predicate must imply key equality.
type hashSweepArea struct {
	reg      *core.Registry
	elemSize int64
	key      func(stream.Tuple) any

	mu      sync.Mutex
	buckets map[any][]stream.Element
	size    int
}

// newHashSweepArea creates a hash-based sweep area partitioned by key.
func newHashSweepArea(env *core.Env, id string, elemSize int64, key func(stream.Tuple) any) *hashSweepArea {
	sa := &hashSweepArea{
		reg:      env.NewRegistry(id),
		elemSize: elemSize,
		key:      key,
		buckets:  make(map[any][]stream.Element),
	}
	defineSweepAreaMetadata(sa, "hash")
	return sa
}

// Registry implements sweepArea.
func (sa *hashSweepArea) Registry() *core.Registry { return sa.reg }

// Insert implements sweepArea.
func (sa *hashSweepArea) Insert(el stream.Element) {
	k := sa.key(el.Tuple)
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.buckets[k] = append(sa.buckets[k], el)
	sa.size++
}

// PurgeBefore implements sweepArea.
func (sa *hashSweepArea) PurgeBefore(t clock.Time) int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	removed := 0
	for k, els := range sa.buckets {
		kept := els[:0]
		for _, el := range els {
			if el.End > t {
				kept = append(kept, el)
			} else {
				removed++
			}
		}
		if len(kept) == 0 {
			delete(sa.buckets, k)
		} else {
			for i := len(kept); i < len(els); i++ {
				els[i] = stream.Element{}
			}
			sa.buckets[k] = kept
		}
	}
	sa.size -= removed
	return removed
}

// Probe implements sweepArea.
func (sa *hashSweepArea) Probe(el stream.Element, pred func(stream.Tuple) bool, emit func(stream.Element)) int {
	k := sa.key(el.Tuple)
	sa.mu.Lock()
	bucket := sa.buckets[k]
	snapshot := make([]stream.Element, len(bucket))
	copy(snapshot, bucket)
	sa.mu.Unlock()
	comparisons := 0
	for _, stored := range snapshot {
		comparisons++
		if stored.Overlaps(el) && pred(stored.Tuple) {
			emit(stored)
		}
	}
	return comparisons
}

// Size implements sweepArea.
func (sa *hashSweepArea) Size() int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.size
}

// MemBytes implements sweepArea. Hash buckets carry a small per-bucket
// overhead on top of the element payloads.
func (sa *hashSweepArea) MemBytes() int64 {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return int64(sa.size)*sa.elemSize + int64(len(sa.buckets))*48
}
