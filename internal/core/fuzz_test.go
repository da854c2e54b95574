package core

import (
	"errors"
	"testing"

	"repro/internal/clock"
)

// FuzzResolveSelector drives selector resolution and the inclusion
// traversal with arbitrary selector shapes and dependency kinds over a
// small graph with inputs, outputs, and a module. Whatever the input,
// Subscribe must either succeed or fail with a classified error, leave
// no residue on failure, and never wedge a component lock.
func FuzzResolveSelector(f *testing.F) {
	f.Add(uint8(0), 0, "m", "leaf", false)
	f.Add(uint8(1), 0, "", "leaf", false)
	f.Add(uint8(1), 99, "", "leaf", true)
	f.Add(uint8(2), 0, "", "leaf", false)
	f.Add(uint8(3), 0, "", "leaf", false)
	f.Add(uint8(4), -1, "", "leaf", false)
	f.Add(uint8(5), 0, "m", "modItem", false)
	f.Add(uint8(5), 0, "nope", "leaf", true)
	f.Add(uint8(6), 0, "", "leaf", false)
	f.Add(uint8(0), 0, "", "probe", false) // self-cycle
	f.Add(uint8(0), 0, "", "zzz", false)   // unknown kind
	f.Fuzz(func(t *testing.T, selPick uint8, index int, name, depKind string, optional bool) {
		var sel Selector
		switch selPick % 6 {
		case 0:
			sel = Self()
		case 1:
			sel = Input(index)
		case 2:
			sel = EachInput()
		case 3:
			sel = Output(index)
		case 4:
			sel = EachOutput()
		case 5:
			sel = Module(name)
		}

		env := NewEnv(clock.NewVirtual())
		up := env.NewRegistry("up")
		node := env.NewRegistry("node")
		down := env.NewRegistry("down")
		mod := env.NewRegistry("node.m")
		node.SetNeighbors(
			func() []*Registry { return []*Registry{up} },
			func() []*Registry { return []*Registry{down} },
		)
		node.AttachModule("m", mod)
		leaf := &Definition{
			Kind:  "leaf",
			Build: func(*BuildContext) (Handler, error) { return NewStatic(1.0), nil },
		}
		for _, r := range []*Registry{up, node, down, mod} {
			r.MustDefine(leaf)
		}
		mod.MustDefine(&Definition{
			Kind:  "modItem",
			Build: func(*BuildContext) (Handler, error) { return NewStatic(2.0), nil },
		})
		node.MustDefine(&Definition{
			Kind: "probe",
			Resolve: func(*ResolveContext) []DepRef {
				return []DepRef{{Target: sel, Kind: Kind(depKind), Optional: optional}}
			},
			Build: func(ctx *BuildContext) (Handler, error) { return NewStatic(3.0), nil },
		})

		// resolveSelector itself: never panics, never returns nil
		// registries, errors only for selectors not constructible via
		// the public API.
		for _, r := range []*Registry{up, node, down, mod} {
			var one [1]*Registry
			regs, err := r.resolveSelector(sel, &one)
			if err != nil {
				t.Fatalf("resolveSelector(%v) on %s: %v", sel, r.ID(), err)
			}
			for _, tr := range regs {
				if tr == nil {
					t.Fatalf("resolveSelector(%v) on %s returned a nil registry", sel, r.ID())
				}
			}
		}

		sub, err := node.Subscribe("probe")
		if err != nil {
			known := errors.Is(err, ErrUnknownItem) || errors.Is(err, ErrCycle) ||
				errors.Is(err, ErrBadSelector)
			if !known {
				t.Fatalf("Subscribe error not classified: %v", err)
			}
		} else {
			sub.Unsubscribe()
		}
		// Success or failure, the graph must drain clean with no held
		// locks and no leaked entries.
		regs := []*Registry{up, node, down, mod}
		for _, r := range regs {
			if inc := r.Included(); len(inc) > 0 {
				t.Fatalf("registry %s leaked entries %v", r.ID(), inc)
			}
		}
		if errs := VerifyIntegrity(map[ItemKey]int{}, regs...); len(errs) > 0 {
			t.Fatalf("integrity violations: %v", errs)
		}
		if err := ScopesUnlocked(regs...); err != nil {
			t.Fatal(err)
		}
	})
}
