package ops

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/stream"
)

// JoinPredicate decides whether two tuples join.
type JoinPredicate func(left, right stream.Tuple) bool

// SweepArea is an exchangeable join-state module (Section 4.5): the
// data structure storing one input's window contents. The join
// operator can be based on different implementations (lists, hash
// tables); each carries its own metadata registry so the join's
// memory-usage item can aggregate module metadata recursively.
type SweepArea interface {
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
func defineSweepAreaMetadata(sa SweepArea, impl string) {
	r := sa.Registry()
	defineStaticImplType(r, impl)
	r.MustDefine(&core.Definition{
		Kind: KindSize,
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

// ListSweepArea stores elements in arrival order and probes by linear
// scan. It is the nested-loops implementation type of Section 1's
// operator metadata example.
type ListSweepArea struct {
	reg      *core.Registry
	elemSize int64

	mu  sync.Mutex
	els []stream.Element
}

// NewListSweepArea creates a list-based sweep area. elemSize is the
// per-element memory estimate in bytes.
func NewListSweepArea(env *core.Env, id string, elemSize int64) *ListSweepArea {
	sa := &ListSweepArea{reg: env.NewRegistry(id), elemSize: elemSize}
	defineSweepAreaMetadata(sa, "list")
	return sa
}

// Registry implements SweepArea.
func (sa *ListSweepArea) Registry() *core.Registry { return sa.reg }

// Insert implements SweepArea.
func (sa *ListSweepArea) Insert(el stream.Element) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.els = append(sa.els, el)
}

// PurgeBefore implements SweepArea.
func (sa *ListSweepArea) PurgeBefore(t clock.Time) int {
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

// Probe implements SweepArea.
func (sa *ListSweepArea) Probe(el stream.Element, pred func(stream.Tuple) bool, emit func(stream.Element)) int {
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

// Size implements SweepArea.
func (sa *ListSweepArea) Size() int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return len(sa.els)
}

// MemBytes implements SweepArea.
func (sa *ListSweepArea) MemBytes() int64 {
	return int64(sa.Size()) * sa.elemSize
}

// HashSweepArea partitions elements by a key function and probes only
// the matching bucket. It is the hash-based implementation type; the
// join predicate must imply key equality.
type HashSweepArea struct {
	reg      *core.Registry
	elemSize int64
	key      func(stream.Tuple) any

	mu      sync.Mutex
	buckets map[any][]stream.Element
	size    int
}

// newHashSweepArea creates a hash-based sweep area partitioned by key.
func newHashSweepArea(env *core.Env, id string, elemSize int64, key func(stream.Tuple) any) *HashSweepArea {
	sa := &HashSweepArea{
		reg:      env.NewRegistry(id),
		elemSize: elemSize,
		key:      key,
		buckets:  make(map[any][]stream.Element),
	}
	defineSweepAreaMetadata(sa, "hash")
	return sa
}

// Registry implements SweepArea.
func (sa *HashSweepArea) Registry() *core.Registry { return sa.reg }

// Insert implements SweepArea.
func (sa *HashSweepArea) Insert(el stream.Element) {
	k := sa.key(el.Tuple)
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.buckets[k] = append(sa.buckets[k], el)
	sa.size++
}

// PurgeBefore implements SweepArea.
func (sa *HashSweepArea) PurgeBefore(t clock.Time) int {
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

// Probe implements SweepArea.
func (sa *HashSweepArea) Probe(el stream.Element, pred func(stream.Tuple) bool, emit func(stream.Element)) int {
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

// Size implements SweepArea.
func (sa *HashSweepArea) Size() int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.size
}

// MemBytes implements SweepArea. Hash buckets carry a small per-bucket
// overhead on top of the element payloads.
func (sa *HashSweepArea) MemBytes() int64 {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return int64(sa.size)*sa.elemSize + int64(len(sa.buckets))*48
}
