package watch

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Source is anything that can register watchers on items addressed by
// name: the in-process hubView (the epoch-diff hub over an
// environment's registries) or a Relay re-serving an upstream server
// (a hub whose points mirror the upstream's items). Either way the
// watcher lives on a hub point. Server, Session, and the mux transport
// are written against this interface, so one HTTP surface and one
// multiplexing session implementation serve both a primary and any
// depth of relays.
type Source interface {
	// WatchItem registers a watcher on the item (registry, kind) with
	// the usual contract: snapshot-then-delta catch-up when behind
	// opt.Since, then strictly increasing versions with flagged gaps.
	WatchItem(registry string, kind core.Kind, opt Options) (*Watcher, error)
	// ListItems returns each registry's defined item kinds.
	ListItems() (map[string][]string, error)
	// SourceStats returns the stats sink the source accounts into.
	SourceStats() *core.Stats
}

// hubView adapts a Hub plus the registries it exposes by name into a
// Source — the primary-server implementation.
type hubView struct {
	hub  *Hub
	env  *core.Env
	regs map[string]*core.Registry
	keys []string
}

// NewHubView builds the hub-backed source exposing the given
// registries by their IDs.
func NewHubView(hub *Hub, env *core.Env, regs ...*core.Registry) Source {
	v := &hubView{hub: hub, env: env, regs: make(map[string]*core.Registry)}
	for _, r := range regs {
		if _, dup := v.regs[r.ID()]; !dup {
			v.keys = append(v.keys, r.ID())
		}
		v.regs[r.ID()] = r
	}
	sort.Strings(v.keys)
	return v
}

// WatchItem implements Source by resolving the registry name and
// registering on the hub.
func (v *hubView) WatchItem(registry string, kind core.Kind, opt Options) (*Watcher, error) {
	reg := v.regs[registry]
	if reg == nil {
		return nil, fmt.Errorf("watch: unknown registry %q", registry)
	}
	if kind == "" {
		return nil, fmt.Errorf("watch: missing kind")
	}
	return v.hub.Watch(reg, kind, opt)
}

// ListItems implements Source: each exposed registry's defined kinds.
func (v *hubView) ListItems() (map[string][]string, error) {
	out := make(map[string][]string, len(v.keys))
	for _, id := range v.keys {
		var kinds []string
		for _, k := range v.regs[id].Available() {
			kinds = append(kinds, string(k))
		}
		out[id] = kinds
	}
	return out, nil
}

// SourceStats implements Source with the environment's stats.
func (v *hubView) SourceStats() *core.Stats { return v.env.Stats() }
