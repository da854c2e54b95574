package sched

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
)

// qos is a priority scheduler driven by query-level metadata: every
// queue inherits the maximum static QoS priority of the sinks
// reachable downstream of its operator (the "scheduling priority"
// query metadata of Figure 1). Queues of higher-priority queries are
// always serviced first; ties fall back to the oldest head so equal
// queries share fairly.
type qos struct {
	// prio caches per-node priority; sink priorities are obtained
	// through metadata subscriptions.
	prio map[int]float64
	subs []*core.Subscription
}

// NewQoS returns a QoS priority scheduler.
func NewQoS() Scheduler {
	return &qos{prio: make(map[int]float64)}
}

// Name implements Scheduler.
func (s *qos) Name() string { return "qos" }

// priority computes (and caches) the node's priority as the maximum
// qosPriority metadata value among its downstream sinks.
func (s *qos) priority(n graph.Node) float64 {
	if p, ok := s.prio[n.ID()]; ok {
		return p
	}
	p := 0.0
	gn, ok := n.(interface{ Graph() *graph.Graph })
	if ok {
		for _, d := range gn.Graph().Downstream(n) {
			if d.Type() != graph.SinkNode {
				continue
			}
			sub, err := d.Registry().Subscribe(ops.KindQoSPriority)
			if err != nil {
				continue
			}
			s.subs = append(s.subs, sub)
			if v, err := sub.Float(); err == nil && v > p {
				p = v
			}
		}
	}
	s.prio[n.ID()] = p
	return p
}

// Pick implements Scheduler.
func (s *qos) Pick(queues []QueueInfo) int {
	best := -1
	bestP := 0.0
	for i, q := range queues {
		p := s.priority(q.Node)
		if best == -1 || p > bestP ||
			(p == bestP && q.HeadArrival < queues[best].HeadArrival) {
			best = i
			bestP = p
		}
	}
	return best
}

// Close releases the priority subscriptions.
func (s *qos) Close() {
	for _, sub := range s.subs {
		sub.Unsubscribe()
	}
	s.subs = nil
	s.prio = make(map[int]float64)
}
