// Package optimizer implements the paper's third motivating
// application: runtime query (re-)optimization driven by dynamic
// metadata. "Changes in stream characteristics, such as stream rates
// or value distributions, may necessitate re-optimizations at runtime"
// (Section 1) — and any such optimization "needs runtime statistics as
// a form of metadata" (Section 5).
//
// Two consumers are provided:
//
//   - FilterChain reorders the commuting predicates of a filter chain
//     by the classical rank criterion cost/(1-selectivity), using the
//     live selectivity metadata of each slot;
//   - joinOrderAdvisor scores the possible join orders of a
//     multi-stream sliding-window join with the Figure 3 cost model,
//     fed by estimated-rate metadata, and recommends the cheapest
//     (the rate-based optimization of [22] / plan-migration trigger of
//     [25, 18]).
package optimizer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/stream"
)

// predicate bundles a filter predicate with its simulated cost.
type predicate struct {
	pred func(stream.Tuple) bool
	cost int64
}

// FilterChain adaptively reorders the predicates of adjacent filters.
// The filters must form a chain whose predicates commute (conjunctive
// filtering), so exchanging the predicates between slots preserves the
// query result while changing the cost.
type FilterChain struct {
	mu       sync.Mutex
	filters  []*ops.Filter
	sels     []*core.Subscription
	reorders int
}

// NewFilterChain subscribes to the selectivity metadata of every
// filter in the chain. At least two filters are required.
func NewFilterChain(filters ...*ops.Filter) (*FilterChain, error) {
	if len(filters) < 2 {
		return nil, errors.New("optimizer: a filter chain needs at least two filters")
	}
	c := &FilterChain{filters: filters}
	for _, f := range filters {
		sub, err := f.Registry().Subscribe(ops.KindSelectivity)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("optimizer: subscribing selectivity of %s: %w", f.Name(), err)
		}
		c.sels = append(c.sels, sub)
	}
	return c, nil
}

// Ranks returns the current rank cost/(1-selectivity) of the predicate
// in each slot; predicates should run in ascending rank order. A
// selectivity of 1 yields +Inf (the predicate filters nothing and
// belongs last).
func (c *FilterChain) Ranks() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ranksLocked()
}

func (c *FilterChain) ranksLocked() []float64 {
	ranks := make([]float64, len(c.filters))
	for i, f := range c.filters {
		sel, err := c.sels[i].Float()
		if err != nil || sel >= 1 {
			ranks[i] = math.Inf(1)
			continue
		}
		ranks[i] = float64(f.CostPerElement()) / (1 - sel)
	}
	return ranks
}

// Optimize reorders the predicates into ascending rank order and
// reports whether the order changed. The measured selectivities of the
// slots re-converge over the following update windows.
func (c *FilterChain) Optimize() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ranks := c.ranksLocked()
	order := make([]int, len(ranks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })

	changed := false
	for i, src := range order {
		if src != i {
			changed = true
			break
		}
	}
	if !changed {
		return false
	}
	preds := make([]predicate, len(c.filters))
	for i, src := range order {
		preds[i] = predicate{pred: c.filters[src].Predicate(), cost: c.filters[src].CostPerElement()}
	}
	for i, p := range preds {
		c.filters[i].SetPredicate(p.pred, p.cost)
	}
	c.reorders++
	return true
}

// Reorders returns how many Optimize calls changed the order.
func (c *FilterChain) Reorders() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reorders
}

// Close releases the metadata subscriptions.
func (c *FilterChain) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sels {
		if s != nil {
			s.Unsubscribe()
		}
	}
	c.sels = nil
}

// JoinInput describes one stream entering a multi-way sliding-window
// join for ordering purposes.
type JoinInput struct {
	// Name labels the input in recommendations.
	Name string
	// Rate is a subscription to the input's estimated output rate.
	Rate *core.Subscription
	// Validity is the window size applied to the input.
	Validity float64
}

// Ordering is one evaluated join order.
type Ordering struct {
	// Pair holds the indices of the two inputs joined first.
	Pair [2]int
	// Description renders the plan, e.g. "(A ⋈ B) ⋈ C".
	Description string
	// EstCPU is the cost-model estimate of the plan's CPU usage.
	EstCPU float64
}

// joinOrderAdvisor scores the three possible orders of a three-way
// sliding-window join using the Figure 3 cost model and live
// estimated-rate metadata.
type joinOrderAdvisor struct {
	inputs [3]JoinInput
	// MatchProbability is the estimated probability that a pair of
	// elements satisfies the join predicate (calibrates the
	// intermediate result rate).
	MatchProbability float64
	// PredicateCost is the simulated per-comparison cost.
	PredicateCost float64
}

// NewJoinOrderAdvisor creates an advisor over exactly three inputs.
func NewJoinOrderAdvisor(a, b, c JoinInput, matchP, predCost float64) *joinOrderAdvisor {
	return &joinOrderAdvisor{
		inputs:           [3]JoinInput{a, b, c},
		MatchProbability: matchP,
		PredicateCost:    predCost,
	}
}

// pairCost returns the Figure 3 CPU estimate of joining inputs with
// rates r1, r2 and validities v1, v2, plus the rate and validity of
// the intermediate result.
func (a *joinOrderAdvisor) pairCost(r1, v1, r2, v2 float64) (cost, outRate, outValidity float64) {
	cost = r1*r2*(v1+v2)*a.PredicateCost + r1 + r2
	outRate = r1 * r2 * (v1 + v2) * a.MatchProbability
	// A join result is valid on the intersection of its parents'
	// validities; with uniform arrival phases the expectation is
	// bounded by the smaller validity. The advisor uses that bound —
	// consistent across plans, which is all a ranking needs.
	outValidity = math.Min(v1, v2)
	return
}

// Recommend evaluates the three left-deep orderings and returns them
// sorted by estimated CPU usage, cheapest first.
func (a *joinOrderAdvisor) Recommend() ([]Ordering, error) {
	var rates [3]float64
	for i, in := range a.inputs {
		v, err := in.Rate.Float()
		if err != nil {
			return nil, fmt.Errorf("optimizer: rate of %s: %w", in.Name, err)
		}
		rates[i] = v
	}
	pairs := [3][2]int{{0, 1}, {0, 2}, {1, 2}}
	var out []Ordering
	for _, p := range pairs {
		i, j := p[0], p[1]
		k := 3 - i - j
		c1, rij, vij := a.pairCost(rates[i], a.inputs[i].Validity, rates[j], a.inputs[j].Validity)
		c2, _, _ := a.pairCost(rij, vij, rates[k], a.inputs[k].Validity)
		out = append(out, Ordering{
			Pair:        p,
			Description: fmt.Sprintf("(%s ⋈ %s) ⋈ %s", a.inputs[i].Name, a.inputs[j].Name, a.inputs[k].Name),
			EstCPU:      c1 + c2,
		})
	}
	sort.Slice(out, func(x, y int) bool { return out[x].EstCPU < out[y].EstCPU })
	return out, nil
}
