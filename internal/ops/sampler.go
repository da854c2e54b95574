package ops

import (
	"math/rand"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Sampler randomly drops elements with an adjustable probability. It
// is the load-shedding operator ([21]): the resource manager raises
// the drop probability when resource-usage metadata exceeds its bound
// and lowers it when headroom returns.
type Sampler struct {
	*common
	mu      sync.Mutex
	dropP   float64
	rng     *rand.Rand
	dropped core.Counter
}

// NewSampler creates a sampler with the given initial drop probability
// in [0, 1] and a deterministic seed.
func NewSampler(g *graph.Graph, name string, schema stream.Schema, dropP float64, seed int64, statWindow clock.Duration) *Sampler {
	if dropP < 0 || dropP > 1 {
		panic("ops: drop probability must be in [0, 1]")
	}
	s := &Sampler{
		common: newCommon(g, name, graph.OperatorNode, schema, statWindow),
		dropP:  dropP,
		rng:    rand.New(rand.NewSource(seed)),
	}
	defineStaticImplType(s.Registry(), "sampler")
	s.Registry().MustDefine(&core.Definition{
		Kind: KindDropProbability,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				return s.DropProbability(), nil
			}), nil
		},
	})
	s.Registry().MustDefine(counterDefinition(kindCountDropped, &s.dropped))
	g.Register(s)
	return s
}

// DropProbability returns the current drop probability.
func (s *Sampler) DropProbability() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropP
}

// SetDropProbability adjusts the drop probability at runtime and
// notifies dependents of the metadata change.
func (s *Sampler) SetDropProbability(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s.mu.Lock()
	s.dropP = p
	s.mu.Unlock()
	s.Registry().NotifyChanged(KindDropProbability)
}

// Process implements graph.Node.
func (s *Sampler) Process(el stream.Element, port int) []stream.Element {
	s.recordIn()
	s.recordCost(1)
	s.mu.Lock()
	drop := s.rng.Float64() < s.dropP
	s.mu.Unlock()
	if drop {
		s.dropped.Inc()
		return nil
	}
	s.recordOut(1)
	return []stream.Element{el}
}
