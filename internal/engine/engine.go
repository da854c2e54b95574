// Package engine executes a query graph: it drives sources from
// stream generators on the environment clock, moves elements through
// inter-operator queues, and services those queues either eagerly
// (drain mode: every element is pushed to the sinks as soon as it
// arrives) or under a service budget chosen by a scheduling strategy
// (budget mode: a scheduler picks which queue to service, so queue
// memory and scheduling policy become observable — the setting of the
// paper's Chain motivating application).
package engine

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/ring"
	"repro/internal/sched"
	"repro/internal/stream"
)

// timedEl is a queued element plus its enqueue time.
type timedEl struct {
	el stream.Element
	at clock.Time
}

// queue is one inter-operator queue (consumer, port). Elements live in
// a ring buffer so enqueue and dequeue are O(1) without the
// re-allocation and copying of an append-plus-shift slice.
type queue struct {
	to       graph.Node
	port     int
	els      ring.Buffer[timedEl]
	elemSize int64
}

func (q *queue) bytes() int64 { return int64(q.els.Len()) * q.elemSize }

// binding drives one source from a generator.
type binding struct {
	src *ops.Source
	gen stream.Generator
}

// Engine runs a query graph on a virtual clock.
type Engine struct {
	g  *graph.Graph
	vc *clock.Virtual

	queues []*queue
	qIndex map[[2]int]*queue // (consumerID, port) -> queue

	scheduler sched.Scheduler
	budget    int            // elements serviced per tick (budget mode)
	tickEvery clock.Duration // service tick period (budget mode)

	bindings []*binding
	started  bool

	// processed counts serviced elements (all operators).
	processed int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithScheduler switches the engine to budget mode: every tickEvery
// time units the scheduler services up to budget elements.
func WithScheduler(s sched.Scheduler, budget int, tickEvery clock.Duration) Option {
	if budget <= 0 || tickEvery <= 0 {
		panic("engine: budget and tick period must be positive")
	}
	return func(e *Engine) {
		e.scheduler = s
		e.budget = budget
		e.tickEvery = tickEvery
	}
}

// New creates an engine for the graph. The graph's environment must
// use a virtual clock.
func New(g *graph.Graph, vc *clock.Virtual, opts ...Option) *Engine {
	e := &Engine{g: g, vc: vc, qIndex: make(map[[2]int]*queue)}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Bind attaches a generator to a source node. Must be called before
// Start.
func (e *Engine) Bind(src *ops.Source, gen stream.Generator) {
	if e.started {
		panic("engine: Bind after Start")
	}
	e.bindings = append(e.bindings, &binding{src: src, gen: gen})
}

// Start wires the queues and schedules the first arrivals and, in
// budget mode, the service ticks.
func (e *Engine) Start() {
	if e.started {
		panic("engine: started twice")
	}
	e.started = true

	// One queue per (consumer, port) edge, in deterministic order.
	// Sinks are served directly on delivery — they are connection
	// points to applications, not schedulable operators — so no
	// queues are created for them.
	for _, n := range e.g.Topological() {
		if n.Type() == graph.SinkNode {
			continue
		}
		for port, producer := range e.g.Inputs(n) {
			elemSize := int64(64)
			if c, ok := producer.(interface{ Schema() stream.Schema }); ok {
				elemSize = c.Schema().ElementSize()
			}
			q := &queue{to: n, port: port, elemSize: elemSize}
			e.queues = append(e.queues, q)
			e.qIndex[[2]int{n.ID(), port}] = q
		}
	}

	for _, b := range e.bindings {
		e.scheduleNextArrival(b)
	}
	if e.scheduler != nil {
		clock.NewTicker(e.vc, e.tickEvery, func(now clock.Time) {
			e.serviceTick(now)
		})
	}
}

// scheduleNextArrival pulls the next arrival from the binding's
// generator and schedules its delivery.
func (e *Engine) scheduleNextArrival(b *binding) {
	a, ok := b.gen.Next()
	if !ok {
		return
	}
	e.vc.Schedule(a.At, func(now clock.Time) {
		el := b.src.Emit(stream.NewElement(a.Tuple, a.At))
		e.deliver(b.src, el, now)
		e.scheduleNextArrival(b)
	})
}

// enqueue routes one produced element to every consumer of the
// producer: sink consumers are served immediately; operator consumers
// receive the element in their inter-operator queue.
func (e *Engine) enqueue(from graph.Node, el stream.Element, now clock.Time) {
	for _, c := range e.g.Outputs(from) {
		port := e.g.InputPort(from, c)
		if c.Type() == graph.SinkNode {
			e.processed++
			c.Process(el, port)
			continue
		}
		q := e.qIndex[[2]int{c.ID(), port}]
		if q == nil {
			panic(fmt.Sprintf("engine: no queue for edge %s->%s", from.Name(), c.Name()))
		}
		q.els.Push(timedEl{el: el, at: now})
	}
}

// deliver enqueues an element to every consumer of the producer; in
// drain mode it then processes to quiescence.
func (e *Engine) deliver(from graph.Node, el stream.Element, now clock.Time) {
	e.enqueue(from, el, now)
	if e.scheduler == nil {
		e.drain(now)
	}
}

// drain services queues in topological order until quiescent.
func (e *Engine) drain(now clock.Time) {
	for {
		progressed := false
		for _, q := range e.queues {
			for q.els.Len() > 0 {
				te := q.els.Pop()
				e.processed++
				for _, out := range q.to.Process(te.el, q.port) {
					e.enqueue(q.to, out, now)
				}
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// serviceTick runs one scheduling round in budget mode.
func (e *Engine) serviceTick(now clock.Time) {
	for i := 0; i < e.budget; i++ {
		var infos []sched.QueueInfo
		var nonEmpty []*queue
		for _, q := range e.queues {
			if q.els.Len() == 0 {
				continue
			}
			nonEmpty = append(nonEmpty, q)
			infos = append(infos, sched.QueueInfo{
				Node:        q.to,
				Port:        q.port,
				Len:         q.els.Len(),
				Bytes:       q.bytes(),
				HeadArrival: q.els.Peek().at,
			})
		}
		if len(infos) == 0 {
			return
		}
		pick := e.scheduler.Pick(infos)
		if pick < 0 || pick >= len(nonEmpty) {
			return
		}
		q := nonEmpty[pick]
		te := q.els.Pop()
		e.processed++
		for _, out := range q.to.Process(te.el, q.port) {
			e.enqueue(q.to, out, now)
		}
	}
}

// RunUntil advances the clock to t, driving arrivals, metadata
// updates, and service ticks.
func (e *Engine) RunUntil(t clock.Time) {
	if !e.started {
		e.Start()
	}
	e.vc.AdvanceTo(t)
}

// QueuedBytes returns the total memory held in inter-operator queues —
// the objective Chain scheduling minimizes.
func (e *Engine) QueuedBytes() int64 {
	var b int64
	for _, q := range e.queues {
		b += q.bytes()
	}
	return b
}

// Processed returns the number of serviced elements.
func (e *Engine) Processed() int64 { return e.processed }

// Graph returns the engine's query graph.
func (e *Engine) Graph() *graph.Graph { return e.g }
