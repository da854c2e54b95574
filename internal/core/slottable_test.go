package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/clock"
)

func tableKind(i int) Kind { return Kind(fmt.Sprintf("k%04d", i)) }

// tableRegistry defines n static kinds (kind i holds the value i) in a
// seeded random order.
func tableRegistry(env *Env, id string, n int) *Registry {
	r := env.NewRegistry(id)
	for _, i := range rand.New(rand.NewSource(int64(n))).Perm(n) {
		defineConst(r, tableKind(i), float64(i))
	}
	return r
}

func peekFloat(t *testing.T, r *Registry, k Kind) float64 {
	t.Helper()
	s, err := r.Subscribe(k)
	if err != nil {
		t.Fatalf("subscribe %s/%s: %v", r.ID(), k, err)
	}
	defer s.Unsubscribe()
	v, err := s.Float()
	if err != nil {
		t.Fatalf("read %s/%s: %v", r.ID(), k, err)
	}
	return v
}

// TestSlotTable drives the definition table through every way a kind
// enters, changes and is found, from one kind per registry to a
// thousand.
func TestSlotTable(t *testing.T) {
	for _, n := range []int{1, 4, 8, 64, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			env, _ := testEnv()
			r := tableRegistry(env, "n", n)
			mid, last := tableKind(n/2), tableKind(n-1)

			t.Run("define", func(t *testing.T) {
				avail := r.Available()
				if len(avail) != n || !slices.IsSorted(avail) {
					t.Fatalf("Available() has %d kinds (sorted: %v), want %d sorted", len(avail), slices.IsSorted(avail), n)
				}
				for i := 0; i < n; i++ {
					if !r.IsDefined(tableKind(i)) {
						t.Fatalf("%s is not defined", tableKind(i))
					}
					if got := peekFloat(t, r, tableKind(i)); got != float64(i) {
						t.Fatalf("%s = %v, want %d", tableKind(i), got, i)
					}
				}
				for _, k := range []Kind{"", "a", "k", "k0000x", tableKind(n), "zz"} {
					if r.IsDefined(k) || r.IsIncluded(k) {
						t.Fatalf("undefined kind %q is found", k)
					}
					if _, err := r.Subscribe(k); !errors.Is(err, ErrUnknownItem) {
						t.Fatalf("Subscribe(%q) = %v, want ErrUnknownItem", k, err)
					}
				}
				if inc := r.Included(); len(inc) != 0 {
					t.Fatalf("Included() = %v after every release", inc)
				}
			})

			t.Run("redefine unused", func(t *testing.T) {
				defineConst(r, mid, -1.0)
				if got := peekFloat(t, r, mid); got != -1 {
					t.Fatalf("redefined %s = %v, want -1", mid, got)
				}
				if avail := r.Available(); len(avail) != n || !slices.IsSorted(avail) {
					t.Fatalf("redefinition changed the table: %d kinds, sorted %v", len(avail), slices.IsSorted(avail))
				}
			})

			t.Run("redefine in use", func(t *testing.T) {
				s, err := r.Subscribe(last)
				if err != nil {
					t.Fatal(err)
				}
				rec := r.entryOf(last).def
				err = r.Define(&Definition{Kind: last, Build: func(*BuildContext) (Handler, error) { return NewStatic(-2.0), nil }})
				if !errors.Is(err, ErrItemInUse) {
					t.Fatalf("redefining included %s: %v, want ErrItemInUse", last, err)
				}
				if got := r.entryOf(last).def; got != rec {
					t.Fatal("a refused redefinition replaced the record")
				}
				if inc := r.Included(); !slices.Equal(inc, []Kind{last}) {
					t.Fatalf("Included() = %v, want [%s]", inc, last)
				}
				s.Unsubscribe()
			})

			// Section 4.4.2, E14's shape: the subclass overrides an
			// inherited item with one that also counts its own structure.
			t.Run("inheritance override", func(t *testing.T) {
				first := tableKind(0)
				defineDerived(r, "memUsage", Dep(Self(), first))
				base := peekFloat(t, r, "memUsage")
				defineConst(r, "indexMem", 40.0)
				defineDerived(r, "memUsage", Dep(Self(), first), Dep(Self(), "indexMem"))
				if got := peekFloat(t, r, "memUsage"); got != base+40 {
					t.Fatalf("overridden memUsage = %v, want %v", got, base+40)
				}
				if r.IsIncluded("indexMem") || r.IsIncluded(first) {
					t.Fatal("the override's dependencies outlived its subscription")
				}
			})

			t.Run("module attach and detach", func(t *testing.T) {
				m := tableRegistry(env, "m", n)
				r.AttachModule("mod", m)
				defineDerived(r, "viaModule", Dep(Module("mod"), last))
				s, err := r.Subscribe("viaModule")
				if err != nil {
					t.Fatal(err)
				}
				if v, _ := s.Float(); v != float64(n-1) {
					t.Fatalf("viaModule = %v, want %d", v, n-1)
				}
				// Releasing the last item linked through the module
				// detaches the node from it: the module's items go too.
				if !m.IsIncluded(last) {
					t.Fatal("the module's item is not included under the link")
				}
				s.Unsubscribe()
				if m.IsIncluded(last) {
					t.Fatal("the module's item outlived the link through it")
				}
			})

			if errs := VerifyIntegrity(nil, r); len(errs) > 0 {
				t.Fatalf("integrity: %v", errs)
			}
		})
	}
}

// TestAppendSlotsOrderAndState pins what a checkpoint reads from a
// registry: every defined kind once, ascending, with codec, inclusion,
// mechanism, window, version and value.
func TestAppendSlotsOrderAndState(t *testing.T) {
	env, vc := testEnv()
	r := env.NewRegistry("n")
	defineAdaptive(r, "w", PeriodicMechanism, 10, 5)
	defineConst(r, "s", 1.0)
	defineDerived(r, "t", Dep(Self(), "s"))
	r.MustDefine(&Definition{
		Kind: "c", Persist: "codec", PersistArgs: "args",
		Build: func(*BuildContext) (Handler, error) { return NewStatic(3.0), nil },
	})
	for _, k := range []Kind{"t", "w"} {
		if _, err := r.Subscribe(k); err != nil {
			t.Fatal(err)
		}
	}
	vc.Advance(10)
	if err := r.Migrate("w", PeriodicMechanism, 25); err != nil {
		t.Fatal(err)
	}
	wver, _ := r.ItemVersion("w")
	pre := []SlotState{{Kind: "kept"}}
	got := r.AppendSlots(pre)
	want := []SlotState{
		{Kind: "kept"},
		{Kind: "c", Codec: "codec", Args: "args"},
		{Kind: "s", Included: true, Mechanism: StaticMechanism, Value: 1.0},
		{Kind: "t", Included: true, Mechanism: TriggeredMechanism, Version: 1, Value: 1.0},
		{Kind: "w", Included: true, Mechanism: PeriodicMechanism, Window: 25, Version: wver, Value: 5.0},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("AppendSlots:\n got %+v\nwant %+v", got, want)
	}
}

// TestDefineCopiesItsArgument: a caller that keeps writing to the
// struct and slices it handed to Define changes nothing about the item.
func TestDefineCopiesItsArgument(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n")
	defineConst(r, "a", 1.0)
	defineConst(r, "b", 10.0)
	deps := append(make([]DepRef, 0, 8), Dep(Self(), "a"))
	events := append(make([]string, 0, 8), "e0")
	computes := 0
	def := &Definition{
		Kind: "x", Deps: deps, Events: events,
		Build: func(ctx *BuildContext) (Handler, error) {
			h := ctx.Dep(0)
			return NewTriggered(func(clock.Time) (Value, error) { computes++; return h.Float() }), nil
		},
	}
	r.MustDefine(def)
	if sh := r.slots[len(r.slots)-1].shape; cap(sh.deps) != 1 || cap(sh.events) != 1 {
		t.Fatalf("the shape kept the caller's spare capacity: deps cap %d, events cap %d", cap(sh.deps), cap(sh.events))
	}

	deps[0] = Dep(Self(), "b")
	events[0] = "e1"
	def.Deps = append(def.Deps, Dep(Self(), "missing"))
	def.Events = nil
	def.Kind, def.Pure, def.Build = "y", true, nil

	s, err := r.Subscribe("x")
	if err != nil {
		t.Fatalf("Subscribe after the caller mutated its definition: %v", err)
	}
	defer s.Unsubscribe()
	if v, _ := s.Float(); v != 1 {
		t.Fatalf("x = %v, want 1 (its dependency as defined)", v)
	}
	if r.IsIncluded("b") || r.IsDefined("y") {
		t.Fatal("the mutation reached the registry")
	}
	before := computes
	r.FireEvent("e1")
	if computes != before {
		t.Fatal("x refreshed on an event it never declared")
	}
	r.FireEvent("e0")
	if computes != before+1 {
		t.Fatalf("x refreshed %d times on its declared event, want 1", computes-before)
	}
}

// maxBytesFourPlainKinds is 2 % above the definition table of one
// benchmark operator: four 40-B slots by value, their shapes shared with
// every other operator.
const maxBytesFourPlainKinds = 4 * 40 * 102 / 100

// TestFootprintBytesPerDefinedKind bounds what a definition costs
// before anything subscribes to it.
func TestFootprintBytesPerDefinedKind(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 40 {
		t.Fatalf("slot is %d B, ceiling 40", got)
	}
	const regs = 1000
	env, _ := testEnv()
	build := func(*BuildContext) (Handler, error) { return NewStatic(1.0), nil }
	held := make([]*Registry, regs)
	for i := range held {
		held[i] = env.NewRegistry("r")
	}
	best := int64(0)
	// Other tests' garbage can only add to a reading; the smallest of
	// three is the table's own footprint.
	for trial := 0; trial < 3; trial++ {
		for _, r := range held {
			r.slots = nil
		}
		before := settledHeap()
		for _, r := range held {
			for _, k := range []Kind{"in", "rate", "sel", "est"} {
				r.MustDefine(&Definition{Kind: k, Build: build})
			}
		}
		if per := (settledHeap() - before) / regs; trial == 0 || per < best {
			best = per
		}
	}
	runtime.KeepAlive(held)
	t.Logf("%d B of table per registry of four plain kinds (ceiling %d)", best, maxBytesFourPlainKinds)
	if best > maxBytesFourPlainKinds {
		t.Fatalf("four plain kinds cost %d B of table, ceiling %d", best, maxBytesFourPlainKinds)
	}
}

// TestDefineAllocs: once the table has room, a Define whose shape the env
// already holds allocates nothing but the rare block, if the definition
// has one — on a fresh registry or as a redefinition; a shape the env
// sees for the first time costs its key, the shape and one clone per
// non-empty slice. The caller's Definition is not Define's and is built
// outside the measured call.
func TestDefineAllocs(t *testing.T) {
	const runs = 20
	env, _ := testEnv()
	build := func(*BuildContext) (Handler, error) { return NewStatic(1.0), nil }
	deps := []DepRef{Dep(Self(), "a")}
	cases := []struct {
		name      string
		def       Definition
		hit, miss float64
	}{
		{"plain", Definition{Build: build}, 0, 2},
		{"deps", Definition{Build: build, Deps: deps}, 0, 3},
		{"codec, adapt, deps and an event", Definition{Build: build, Persist: "codec", Adapt: &AdaptSpec{}, Deps: deps, Events: []string{"e"}}, 0, 4},
		{"codec args", Definition{Build: build, Persist: "codec", PersistArgs: "7"}, 1, 3},
		{"delta over deps", Definition{Build: build, Delta: DeltaSum(), Deps: deps}, 1, 4},
	}
	// room returns a registry whose table takes every measured insert
	// without growing.
	room := func() *Registry {
		r := tableRegistry(env, "n", 64)
		r.slots = r.slots[:1]
		return r
	}
	for ci, c := range cases {
		x := Kind(fmt.Sprintf("x%d", ci))
		hit := c.def
		hit.Kind = x
		env.NewRegistry("first").MustDefine(&hit)

		fresh := make([]*Registry, runs+1)
		for i := range fresh {
			fresh[i] = room()
		}
		next := 0
		if got := testing.AllocsPerRun(runs, func() {
			fresh[next].MustDefine(&hit)
			next++
		}); got != c.hit {
			t.Errorf("%s: Define of a shape the env holds allocates %v objects, want %v", c.name, got, c.hit)
		}

		r := room()
		r.MustDefine(&hit)
		if got := testing.AllocsPerRun(runs, func() { r.MustDefine(&hit) }); got != c.hit {
			t.Errorf("%s: redefinition allocates %v objects, want %v", c.name, got, c.hit)
		}

		misses := make([]Definition, runs+1)
		for i := range misses {
			misses[i] = c.def
			misses[i].Kind = Kind(fmt.Sprintf("y%d-%02d", ci, i))
		}
		next = 0
		if got := testing.AllocsPerRun(runs, func() {
			r.MustDefine(&misses[next])
			next++
		}); got != c.miss {
			t.Errorf("%s: Define of a new shape allocates %v objects, want %v", c.name, got, c.miss)
		}
	}
}
