package core

import "fmt"

// Kind names a metadata item within a registry, e.g. "inputRate" or
// "estimatedCPUUsage". The well-known kinds used by the operator
// library and the cost model are defined in their packages; the
// framework treats kinds as opaque.
type Kind string

// Mechanism enumerates the maintenance concepts of Figure 2.
type Mechanism int

// The four maintenance mechanisms.
const (
	// StaticMechanism marks an invariable value.
	StaticMechanism Mechanism = iota
	// OnDemandMechanism recomputes the value on every access.
	OnDemandMechanism
	// PeriodicMechanism publishes a value per fixed time window.
	PeriodicMechanism
	// TriggeredMechanism recomputes on dependency updates and events.
	TriggeredMechanism
)

// String returns the mechanism name as used in the paper.
func (m Mechanism) String() string {
	switch m {
	case StaticMechanism:
		return "static"
	case OnDemandMechanism:
		return "on-demand"
	case PeriodicMechanism:
		return "periodic"
	case TriggeredMechanism:
		return "triggered"
	default:
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
}

// selKind discriminates Selector variants.
type selKind int

const (
	selSelf selKind = iota
	selInput
	selEachInput
	selOutput
	selEachOutput
	selModule
)

// Selector addresses the registry (or registries) a dependency refers
// to, relative to the registry defining the dependent item. Selectors
// let one Definition serve every operator instance: "Input(0)" on a
// join resolves to whatever node feeds its left input in the concrete
// query graph.
type Selector struct {
	kind  selKind
	index int
	name  string
}

// Self selects the defining registry itself (intra-node dependency).
func Self() Selector { return Selector{kind: selSelf} }

// Input selects the registry of the i-th upstream node (inter-node
// dependency on a node upstream).
func Input(i int) Selector { return Selector{kind: selInput, index: i} }

// EachInput selects the registries of all upstream nodes; the
// dependency group then holds one handle per input.
func EachInput() Selector { return Selector{kind: selEachInput} }

// Module selects the registry of the named exchangeable module of the
// node (Section 4.5), e.g. the join's "left" sweep area.
func Module(name string) Selector { return Selector{kind: selModule, name: name} }

// String renders the selector for error messages.
func (s Selector) String() string {
	switch s.kind {
	case selSelf:
		return "self"
	case selInput:
		return fmt.Sprintf("input(%d)", s.index)
	case selEachInput:
		return "eachInput"
	case selOutput:
		return fmt.Sprintf("output(%d)", s.index)
	case selEachOutput:
		return "eachOutput"
	case selModule:
		return "module(" + s.name + ")"
	default:
		return "selector(?)"
	}
}

// DepRef is one declared dependency: the item Kind at the registries
// matched by Target.
type DepRef struct {
	// Target addresses the registries providing the dependency.
	Target Selector
	// Kind is the metadata item required there.
	Kind Kind
	// Optional marks dependencies that may match no registry without
	// failing the subscription (the dependency group is then empty).
	Optional bool
}

// Dep is shorthand for a required DepRef.
func Dep(target Selector, kind Kind) DepRef {
	return DepRef{Target: target, Kind: kind}
}

// OptionalDep is shorthand for an optional DepRef.
func OptionalDep(target Selector, kind Kind) DepRef {
	return DepRef{Target: target, Kind: kind, Optional: true}
}
