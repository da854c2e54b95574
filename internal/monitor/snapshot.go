package monitor

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// itemSnapshot is the captured state of one included metadata item.
type itemSnapshot struct {
	// Kind is the item kind.
	Kind string `json:"kind"`
	// Mechanism is the handler's update mechanism.
	Mechanism string `json:"mechanism"`
	// Value is the current value (numbers as float64, everything else
	// stringified). A quarantined item reports its last-good value
	// here, with Health/StaleFor flagging the degradation.
	Value any `json:"value"`
	// Error carries a failed read.
	Error string `json:"error,omitempty"`
	// Refs is the item's subscription count.
	Refs int `json:"refs"`
	// Health is the item's breaker state ("degraded", "quarantined",
	// "probing"); omitted while healthy.
	Health string `json:"health,omitempty"`
	// StaleFor is how long a quarantined item has been serving its
	// last-good value, in clock units; 0 unless quarantined/probing.
	StaleFor int64 `json:"staleFor,omitempty"`
}

// nodeSnapshot captures one registry (node or module).
type nodeSnapshot struct {
	// Registry is the registry identifier.
	Registry string `json:"registry"`
	// Type is the node type ("source", "operator", "sink", "module").
	Type string `json:"type"`
	// Items holds the included items in kind order.
	Items []itemSnapshot `json:"items"`
}

// snapshot captures the complete metadata state of the graph: every
// included item of every node and module with its current value — the
// raw material of the paper's system-profiling application ("analysis
// gives insight into system behavior", Section 1).
func snapshot(g *graph.Graph) []nodeSnapshot {
	var out []nodeSnapshot
	var capture func(r *core.Registry, typ string)
	capture = func(r *core.Registry, typ string) {
		ns := nodeSnapshot{Registry: r.ID(), Type: typ}
		for _, kind := range r.Included() {
			item := itemSnapshot{Kind: string(kind), Refs: r.Refs(kind)}
			if mech, ok := r.Mechanism(kind); ok {
				item.Mechanism = mech.String()
			}
			if hs, ok := r.Health(kind); ok && hs.State != core.Healthy {
				item.Health = hs.State.String()
				item.StaleFor = int64(hs.StaleFor)
			}
			// Peek reads the live value without subscription churn:
			// monitoring never perturbs reference counts or takes the
			// structural locks of the scopes it observes.
			v, err := r.Peek(kind)
			if err != nil {
				item.Error = err.Error()
				if !errors.Is(err, core.ErrStale) {
					v = nil
				}
			}
			switch v.(type) {
			case float64, int, int64, bool, string, nil:
				item.Value = v
			default:
				item.Value = fmt.Sprint(v)
			}
			ns.Items = append(ns.Items, item)
		}
		if len(ns.Items) > 0 {
			out = append(out, ns)
		}
		for _, name := range r.Modules() {
			capture(r.ModuleRegistry(name), "module")
		}
	}
	for _, n := range g.Nodes() {
		capture(n.Registry(), n.Type().String())
	}
	return out
}

// SnapshotJSON renders the snapshot as indented JSON.
func SnapshotJSON(g *graph.Graph) ([]byte, error) {
	return json.MarshalIndent(snapshot(g), "", "  ")
}
