package core

import (
	"errors"
	"testing"

	"repro/internal/clock"
)

// TestComputeErrorSurfacesThroughChain: a failing compute in the
// middle of a dependency chain surfaces at the consumer's read instead
// of being swallowed by propagation.
func TestComputeErrorSurfacesThroughChain(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	boom := errors.New("sensor offline")
	failing := false
	r.MustDefine(&Definition{
		Kind:   "base",
		Events: []string{"changed"},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) {
				if failing {
					return nil, boom
				}
				return 1.0, nil
			}), nil
		},
	})
	defineDerived(r, "derived", Dep(Self(), "base"))
	s, err := r.Subscribe("derived")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if v, err := s.Float(); err != nil || v != 1 {
		t.Fatalf("pre-failure read: %v, %v", v, err)
	}

	failing = true
	r.FireEvent("changed")
	if _, err := s.Value(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the underlying compute error", err)
	}

	// Recovery: the next successful propagation clears the error.
	failing = false
	r.FireEvent("changed")
	if v, err := s.Float(); err != nil || v != 1 {
		t.Fatalf("post-recovery read: %v, %v", v, err)
	}
}

// TestPeriodicComputeErrorRetained: a periodic window whose compute
// fails serves the error until the next window succeeds.
func TestPeriodicComputeErrorRetained(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n")
	boom := errors.New("bad window")
	fail := false
	r.MustDefine(&Definition{
		Kind: "p",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(a, b clock.Time) (Value, error) {
				if fail {
					return nil, boom
				}
				return float64(b), nil
			}), nil
		},
	})
	s, _ := r.Subscribe("p")
	defer s.Unsubscribe()
	fail = true
	vc.Advance(10)
	if _, err := s.Value(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fail = false
	vc.Advance(10)
	if v, err := s.Float(); err != nil || v != 20 {
		t.Fatalf("recovered read: %v, %v", v, err)
	}
}

// TestSubscribeAfterNeighborRewire: inter-node dependencies resolve
// against the topology at inclusion time.
func TestSubscribeAfterNeighborRewire(t *testing.T) {
	env, _ := testEnv()
	a := env.NewRegistry("a")
	b := env.NewRegistry("b")
	op := env.NewRegistry("op")
	defineConst(a, "rate", 1.0)
	defineConst(b, "rate", 2.0)
	defineDerived(op, "est", Dep(Input(0), "rate"))

	wire(op, []*Registry{a}, nil)
	s1, err := op.Subscribe("est")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s1.Float(); v != 1 {
		t.Fatalf("est = %v, want 1 via a", v)
	}
	s1.Unsubscribe()

	// Re-wire the input to b: a fresh subscription follows the new
	// topology.
	wire(op, []*Registry{b}, nil)
	s2, err := op.Subscribe("est")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Unsubscribe()
	if v, _ := s2.Float(); v != 2 {
		t.Fatalf("est = %v, want 2 via b", v)
	}
	if a.IsIncluded("rate") {
		t.Fatal("old neighbor still included")
	}
}

// TestModuleAttachedAfterDefinition: a definition with a Module
// selector only resolves once the module is attached.
func TestModuleAttachedAfterDefinition(t *testing.T) {
	env, _ := testEnv()
	op := env.NewRegistry("op")
	defineDerived(op, "size", Dep(Module("m"), "size"))
	if _, err := op.Subscribe("size"); !errors.Is(err, ErrBadSelector) {
		t.Fatalf("err = %v, want ErrBadSelector before attach", err)
	}
	mod := env.NewRegistry("op.m")
	defineConst(mod, "size", 4.0)
	op.AttachModule("m", mod)
	s, err := op.Subscribe("size")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe()
	if v, _ := s.Float(); v != 4 {
		t.Fatalf("size = %v, want 4 after attach", v)
	}
}

// TestHandleMechanismAfterRemoval: introspection on a dead handle
// degrades gracefully.
func TestHandleMechanismAfterRemoval(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	r.MustDefine(&Definition{Kind: "x", Build: func(*BuildContext) (Handler, error) {
		return NewOnDemand(func(clock.Time) (Value, error) { return 1.0, nil }), nil
	}})
	s, _ := r.Subscribe("x")
	h := s.Handle()
	if h.Mechanism() != OnDemandMechanism {
		t.Fatal("live mechanism wrong")
	}
	if h.Kind() != "x" || h.Registry() != r {
		t.Fatal("handle accessors wrong")
	}
	s.Unsubscribe()
	if h.Mechanism() != StaticMechanism {
		t.Fatal("dead handle mechanism should degrade to static zero value")
	}
	if _, err := h.Float(); !errors.Is(err, ErrUnsubscribed) {
		t.Fatal("dead handle read should fail")
	}
}

// TestSubscriptionAccessors covers the remaining Subscription surface.
func TestSubscriptionAccessors(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	defineConst(r, "x", 1.5)
	s, _ := r.Subscribe("x")
	defer s.Unsubscribe()
	if s.Handle().Kind() != "x" {
		t.Fatal("Kind wrong")
	}
	if s.Handle().Mechanism() != StaticMechanism {
		t.Fatal("Mechanism wrong")
	}
	if v, err := s.Float(); err != nil || v != 1.5 {
		t.Fatalf("Float = %v, %v", v, err)
	}
	s.Unsubscribe()
	if _, err := s.Float(); !errors.Is(err, ErrUnsubscribed) {
		t.Fatal("Float after release should fail")
	}
}

// TestEventOnNonTriggeredHandlerIsIgnored: registering an event on an
// on-demand handler is harmless — only triggerable handlers refresh.
func TestEventOnNonTriggeredHandlerIsIgnored(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	calls := 0
	r.MustDefine(&Definition{
		Kind:   "od",
		Events: []string{"e"},
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) {
				calls++
				return 1.0, nil
			}), nil
		},
	})
	s, _ := r.Subscribe("od")
	defer s.Unsubscribe()
	r.FireEvent("e")
	if calls != 0 {
		t.Fatalf("on-demand handler computed %d times on event, want 0", calls)
	}
}

// TestUnsubscribeDuringErrorState: releasing a chain whose handlers
// are in error state must still clean up fully.
func TestUnsubscribeDuringErrorState(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	r.MustDefine(&Definition{
		Kind:   "base",
		Events: []string{"fail"},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) {
				return nil, errors.New("down")
			}), nil
		},
	})
	defineDerived(r, "derived", Dep(Self(), "base"))
	s, _ := r.Subscribe("derived")
	r.FireEvent("fail")
	s.Unsubscribe()
	if n := len(r.Included()); n != 0 {
		t.Fatalf("%d items leaked after unsubscribe in error state", n)
	}
}
