//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/clock"
)

// defineWeakly registers def and keeps only a weak pointer to it. Not
// inlined, so no copy of the strong pointer outlives the call in the
// caller's frame.
//
//go:noinline
func defineWeakly(r *Registry, def *Definition) weak.Pointer[Definition] {
	r.MustDefine(def)
	return weak.Make(def)
}

// TestDefineDoesNotRetainDefinition: Define compiles the caller's
// struct into its own record, so the struct is garbage once Define
// returns — defined, and still so while the item is included.
func TestDefineDoesNotRetainDefinition(t *testing.T) {
	build := func(*BuildContext) (Handler, error) {
		return NewTriggered(func(clock.Time) (Value, error) { return 1.0, nil }), nil
	}
	compute := func(*BuildContext) ComputeFunc { return func(clock.Time) (Value, error) { return 1.0, nil } }
	cases := map[string]func() *Definition{
		"plain":          func() *Definition { return &Definition{Kind: "x", Build: build} },
		"persist-backed": func() *Definition { return &Definition{Kind: "x", Build: build, Persist: "codec", PersistArgs: "7"} },
		"adapt-carrying": func() *Definition {
			return &Definition{Kind: "x", Build: build, Adapt: &AdaptSpec{OnDemand: compute, Triggered: compute}}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			env, _ := testEnv()
			r := env.NewRegistry("n")
			w := defineWeakly(r, mk())
			s, err := r.Subscribe("x")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Unsubscribe()
			runtime.GC()
			runtime.GC()
			if def := w.Value(); def != nil {
				t.Fatalf("the registry still references the caller's Definition %p", def)
			}
			if name == "adapt-carrying" {
				if err := r.Migrate("x", OnDemandMechanism, 0); err != nil {
					t.Fatalf("migrating through the compiled record: %v", err)
				}
			}
		})
	}
}
