// Package core implements the paper's primary contribution: a
// publish-subscribe framework for dynamic metadata management in a
// scalable stream processing system.
//
// # Model
//
// Every query-graph node (source, operator, sink) — and, recursively,
// every exchangeable module inside an operator — owns a Registry. A
// Registry holds Definitions of the metadata items the node can
// provide, and, for each item currently in use, its unique metadata
// handler, which also carries the item's reference count and edges.
//
// Consumers call Registry.Subscribe to obtain a Subscription — a proxy
// through which they read the current metadata value. The first
// subscription to an item creates its handler and performs a
// depth-first traversal of the item's dependency graph, implicitly
// including every transitively required item (stopping at items that
// are already provided). Subsequent subscriptions share the existing
// handler via a reference count. Unsubscribing decrements the count;
// when it reaches zero the handler is removed, its monitoring probes
// are deactivated, and its dependencies are recursively excluded.
// Only the metadata actually needed is therefore ever maintained —
// the paper's central scalability property.
//
// # Update mechanisms
//
// Handlers come in four flavors matching Figure 2 of the paper:
//
//   - Static: an immutable value (schema, element size).
//   - OnDemand: recomputed on every access; exact, cheapest for rarely
//     accessed or cheap items.
//   - Periodic: gathers information over a fixed time window and
//     publishes a new value at each window boundary; all concurrent
//     consumers observe the same published value (the isolation
//     condition of Section 3).
//   - Triggered: recomputed only when an underlying metadata item
//     publishes a new value or a developer-defined event fires;
//     updates propagate recursively along the inverted dependency
//     graph, across nodes, in topological order.
//
// # Dependencies
//
// A Definition declares its dependencies as (Selector, Kind) pairs.
// Selectors address registries relationally — the node itself, its
// i-th input, every input, its outputs, or a named module — so a
// single definition serves every operator instance. Dynamic
// dependency resolution (Section 4.4.3) is supported by an optional
// Resolve hook that may choose alternative dependencies based on what
// is already included.
package core
