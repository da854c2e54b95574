// Package sched implements operator scheduling strategies for the
// stream engine. Scheduling is the paper's first motivating
// application for dynamic metadata (Section 1): the Chain strategy [5]
// "has to react to significant changes in operator selectivities to
// minimize the memory usage of inter-operator queues" — so the Chain
// scheduler here is a metadata consumer that subscribes to the
// selectivity items of the operators it schedules.
package sched

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
)

// QueueInfo describes one non-empty inter-operator queue to a
// scheduling strategy.
type QueueInfo struct {
	// Node is the operator the queue feeds.
	Node graph.Node
	// Port is the input port the queue feeds.
	Port int
	// Len is the number of queued elements.
	Len int
	// Bytes is the memory held by the queue.
	Bytes int64
	// HeadArrival is the enqueue time of the oldest element.
	HeadArrival clock.Time
}

// Scheduler picks the next queue to service.
type Scheduler interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Pick returns the index into queues of the queue to service
	// next, or -1 to stay idle. All queues passed are non-empty.
	Pick(queues []QueueInfo) int
	// Close releases any resources (e.g. metadata subscriptions).
	Close()
}

// roundRobin services queues in rotation. It is the metadata-oblivious
// baseline.
type roundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() Scheduler { return &roundRobin{} }

// Name implements Scheduler.
func (s *roundRobin) Name() string { return "roundrobin" }

// Pick implements Scheduler.
func (s *roundRobin) Pick(queues []QueueInfo) int {
	if len(queues) == 0 {
		return -1
	}
	idx := s.next % len(queues)
	s.next++
	return idx
}

// Close implements Scheduler.
func (s *roundRobin) Close() {}

// fifo services the queue holding the globally oldest element,
// approximating arrival-order processing.
type fifo struct{}

// NewFIFO returns a FIFO scheduler.
func NewFIFO() Scheduler { return &fifo{} }

// Name implements Scheduler.
func (s *fifo) Name() string { return "fifo" }

// Pick implements Scheduler.
func (s *fifo) Pick(queues []QueueInfo) int {
	best := -1
	for i, q := range queues {
		if best == -1 || q.HeadArrival < queues[best].HeadArrival {
			best = i
		}
	}
	return best
}

// Close implements Scheduler.
func (s *fifo) Close() {}

// chain is the memory-minimizing strategy of Babcock et al. [5],
// driven by live selectivity metadata: it greedily services the
// operator with the steepest memory-reduction slope, i.e. the one that
// discards the largest expected fraction of its input per unit of
// work. Selectivities are obtained through metadata subscriptions and
// follow workload changes automatically.
type chain struct {
	subs map[int]*core.Subscription // node id -> selectivity subscription
}

// NewChain returns a Chain scheduler.
func NewChain() Scheduler {
	return &chain{subs: make(map[int]*core.Subscription)}
}

// Name implements Scheduler.
func (s *chain) Name() string { return "chain" }

// selectivity returns the operator's current selectivity estimate,
// subscribing to the metadata item on first use.
func (s *chain) selectivity(n graph.Node) float64 {
	sub, ok := s.subs[n.ID()]
	if !ok {
		var err error
		sub, err = n.Registry().Subscribe(ops.KindSelectivity)
		if err != nil {
			// Nodes without a selectivity item (e.g. sinks) count as
			// pass-through.
			s.subs[n.ID()] = nil
			return 1
		}
		s.subs[n.ID()] = sub
	}
	if sub == nil {
		return 1
	}
	v, err := sub.Float()
	if err != nil {
		return 1
	}
	return v
}

// slope returns the expected queue-memory decrease of servicing one
// element of the operator: 1 minus the expected number of elements
// re-entering downstream queues. Outputs consumed by sinks leave the
// queue system entirely, so an operator feeding only sinks has slope
// 1 regardless of selectivity; an operator feeding further operators
// retains a fraction equal to its measured selectivity.
func (s *chain) slope(n graph.Node) float64 {
	requeued := false
	if gn, ok := n.(interface{ Graph() *graph.Graph }); ok {
		for _, c := range gn.Graph().Outputs(n) {
			if c.Type() != graph.SinkNode {
				requeued = true
				break
			}
		}
	}
	if !requeued {
		return 1
	}
	return 1 - s.selectivity(n)
}

// Pick implements Scheduler.
func (s *chain) Pick(queues []QueueInfo) int {
	best := -1
	bestSlope := -1.0
	for i, q := range queues {
		// Ties favor longer queues (more memory at stake).
		slope := s.slope(q.Node)
		if best == -1 || slope > bestSlope ||
			(slope == bestSlope && q.Len > queues[best].Len) {
			best = i
			bestSlope = slope
		}
	}
	return best
}

// Close releases the selectivity subscriptions.
func (s *chain) Close() {
	for _, sub := range s.subs {
		if sub != nil {
			sub.Unsubscribe()
		}
	}
	s.subs = make(map[int]*core.Subscription)
}
