package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
)

// fanoutChurn is one migratable source `src` (constant 1) with n
// dependents of four flavors, chosen so every reader of the dependents
// slice meets its hard case: a triggered item declaring the source once
// (flavor 0) or twice (1), a pure on-demand item (2, memo re-decision on
// migration) and a delta aggregate declaring it twice (3, two pairs per
// publication, re-anchoring on migration). A dependent's value is its
// number of edges on the source.
type fanoutChurn struct {
	t      *testing.T
	env    *Env
	r      *Registry
	flavor []int
	held   map[int]*Subscription
	ext    map[ItemKey]int
}

func fanoutKind(i int) Kind { return Kind(fmt.Sprintf("d%04d", i)) }

func fanoutEdges(flavor int) int { return 1 + flavor%2 }

func (f *fanoutChurn) define(i, flavor int) {
	f.flavor[i] = flavor
	src := Dep(Self(), "src")
	switch k := fanoutKind(i); flavor {
	case 0:
		defineDerived(f.r, k, src)
	case 1:
		defineDerived(f.r, k, src, src)
	case 2:
		defineAdaptive(f.r, k, OnDemandMechanism, 10, 0, src)
	case 3:
		f.r.MustDefine(&Definition{Kind: k, Deps: []DepRef{src, src}, Delta: DeltaSum(), Build: NewDeltaAggregate})
	}
}

func (f *fanoutChurn) subscribe(i int) {
	s, err := f.r.Subscribe(fanoutKind(i))
	if err != nil {
		f.t.Fatalf("subscribe %s: %v", fanoutKind(i), err)
	}
	f.held[i] = s
	f.ext[ItemKey{Registry: f.r.id, Kind: fanoutKind(i)}] = 1
}

// unsubscribe releases dependent i and checks that its edges left the
// source's dependents by swap-remove: the slice shrank by exactly the
// declared edges and at most one element moved per edge, whatever the
// fan-out.
func (f *fanoutChurn) unsubscribe(i int) {
	before := f.srcDependents()
	f.held[i].Unsubscribe()
	delete(f.held, i)
	delete(f.ext, ItemKey{Registry: f.r.id, Kind: fanoutKind(i)})
	after := f.srcDependents()
	edges := fanoutEdges(f.flavor[i])
	if len(after) != len(before)-edges {
		f.t.Fatalf("releasing %s (%d edges) took src from %d to %d dependents", fanoutKind(i), edges, len(before), len(after))
	}
	moved := 0
	for j := range after {
		if after[j] != before[j] {
			moved++
		}
	}
	if moved > edges {
		f.t.Fatalf("releasing %s (%d edges) moved %d of %d dependents elements", fanoutKind(i), edges, moved, len(after))
	}
}

func (f *fanoutChurn) srcDependents() []dependent {
	sc := f.env.lockScope(f.r)
	defer sc.unlock()
	if e := f.r.entryLocked("src"); e != nil {
		return slices.Clone(e.dependents())
	}
	return nil
}

// check verifies the structural invariants and the value of dependent
// i (if held).
func (f *fanoutChurn) check(at string, i int) {
	if errs := VerifyIntegrity(f.ext, f.r); len(errs) > 0 {
		f.t.Fatalf("%s: %d integrity violations, first: %v", at, len(errs), errs[0])
	}
	if s := f.held[i]; s != nil {
		if v, err := s.Float(); err != nil || v != float64(fanoutEdges(f.flavor[i])) {
			f.t.Fatalf("%s: %s = %v, %v; want %d", at, fanoutKind(i), v, err, fanoutEdges(f.flavor[i]))
		}
	}
}

// TestPropertyFlatGraphUnderChurn drives seeded subscribe / unsubscribe
// / migrate / redefine / notify sequences over a source with more than
// 2,000 dependents, verifying the flat graph's invariants after every
// operation, and tears the fan-out down checking O(1) unlink per edge.
// Beside the sequence one goroutine defines fresh kinds that sort
// between the included ones — every insertion shifts the by-value slots
// and, when the table grows, moves the slice — and another reads through
// it (Peek, Adaptable, AppendSlots) while the sequence migrates,
// releases and includes: no entry may be found, filed or removed under a
// stale index, and no entry's shape may change. Run with -race.
func TestPropertyFlatGraphUnderChurn(t *testing.T) {
	const n = 2048
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			vc := clock.NewVirtual()
			env := NewEnv(vc, WithMemoizedOnDemand())
			f := &fanoutChurn{
				t: t, env: env, r: env.NewRegistry("hub"),
				flavor: make([]int, n),
				held:   make(map[int]*Subscription),
				ext:    make(map[ItemKey]int),
			}
			defineAdaptive(f.r, "src", TriggeredMechanism, 10, 1)
			for i := 0; i < n; i++ {
				f.define(i, rng.Intn(4))
			}
			for i := 0; i < n; i++ {
				f.subscribe(i)
				if i%64 == 63 {
					f.check(fmt.Sprintf("build-up %d", i), i)
				}
			}
			if got := len(f.srcDependents()); got < n {
				t.Fatalf("src has %d dependents elements, want >= %d", got, n)
			}

			const fresh = 512
			srcDef := f.r.entryOf("src").def
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for k := 0; k < fresh; k++ {
					defineConst(f.r, Kind(fmt.Sprintf("d%04d+", k*n/fresh)), 1.0)
					runtime.Gosched()
				}
			}()
			go func() {
				defer wg.Done()
				var states []SlotState
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := f.r.Peek("src"); err != nil {
						t.Errorf("Peek(src) beside Define: %v", err)
						return
					}
					if _, ok := f.r.Adaptable("src"); !ok {
						t.Error("Adaptable(src) beside Define: not adaptable")
						return
					}
					kind := fanoutKind(k % n)
					f.r.Peek(kind)
					if e := f.r.entryOf(kind); e != nil && e.kind() != kind {
						t.Errorf("%s is filed in the slot of %s", e.kind(), kind)
						return
					}
					if f.r.IsDefined("d0000-") {
						t.Error("an undefined kind is defined")
						return
					}
					if k%64 != 0 {
						continue
					}
					states = f.r.AppendSlots(states[:0])
					src, _ := slices.BinarySearchFunc(states, "src", func(s SlotState, k Kind) int { return cmp.Compare(s.Kind, k) })
					if !slices.IsSortedFunc(states, func(a, b SlotState) int { return cmp.Compare(a.Kind, b.Kind) }) ||
						len(states) < n+1 || !states[src].Included {
						t.Errorf("AppendSlots beside Define: %d states, src included: %v", len(states), states[src].Included)
						return
					}
				}
			}()

			mechs := []Mechanism{OnDemandMechanism, TriggeredMechanism, PeriodicMechanism}
			for op := 0; op < 200; op++ {
				i := rng.Intn(n)
				var what string
				switch c := rng.Intn(10); {
				case c < 3 && f.held[i] != nil:
					what = "unsubscribe"
					f.unsubscribe(i)
				case c < 6 && f.held[i] == nil:
					what = "subscribe"
					f.subscribe(i)
				case c < 7 && f.held[i] == nil:
					what = "redefine"
					f.define(i, (f.flavor[i]+1+rng.Intn(3))%4)
				case c < 8:
					what = fmt.Sprintf("migrate to %v", mechs[op%3])
					if err := f.r.Migrate("src", mechs[op%3], 10); err != nil {
						t.Fatalf("op %d: %s: %v", op, what, err)
					}
				case c < 9:
					what = "notify"
					f.r.NotifyChanged("src")
				default:
					what = "advance"
					vc.Advance(10)
				}
				f.check(fmt.Sprintf("op %d (%s %s)", op, what, fanoutKind(i)), i)
			}

			close(stop)
			wg.Wait()
			if got := f.r.entryOf("src").def; got != srcDef {
				t.Fatalf("src's shape changed from %p to %p under concurrent Define", srcDef, got)
			}
			if avail := f.r.Available(); len(avail) != n+1+fresh || !slices.IsSorted(avail) {
				t.Fatalf("%d kinds available (sorted: %v), want %d sorted", len(avail), slices.IsSorted(avail), n+1+fresh)
			}
			f.check("after concurrent defines", 0)

			order := make([]int, 0, len(f.held))
			for i := range f.held {
				order = append(order, i)
			}
			slices.Sort(order)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			for k, i := range order {
				f.unsubscribe(i)
				if k%64 == 63 {
					f.check(fmt.Sprintf("teardown %d", k), i)
				}
			}
			f.check("torn down", 0)
			if inc := f.r.Included(); len(inc) != 0 {
				t.Fatalf("%d items left included: %v", len(inc), inc)
			}
		})
	}
}

// TestFanOutAcrossPowersOfTwo takes one held source through every
// fan-out from 1 to 17 dependents. The fan-out array doubles at each
// power of two as the dependents are included, gives elements back by
// swap-remove as they are released in a seeded random order (and the
// array itself at zero), and grows again as they are re-included.
// After every step the graph verifies, ndeps is the number of live
// dependents, and one NotifyChanged refreshes each of them. Run with
// -race: checkptr then checks every fan-out slice against its array.
func TestFanOutAcrossPowersOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 17; k++ {
		env, _ := testEnv()
		r := env.NewRegistry("fan")
		state := 0.0
		r.MustDefine(&Definition{Kind: "src", Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(clock.Time) (Value, error) { return state, nil }), nil
		}})
		src, err := r.Subscribe("src")
		if err != nil {
			t.Fatal(err)
		}
		ext := map[ItemKey]int{{Registry: "fan", Kind: "src"}: 1}
		held := make([]*Subscription, k)
		toggle := func(i int) {
			key := ItemKey{Registry: "fan", Kind: fanoutKind(i)}
			if held[i] != nil {
				held[i].Unsubscribe()
				held[i] = nil
				delete(ext, key)
				return
			}
			if held[i], err = r.Subscribe(fanoutKind(i)); err != nil {
				t.Fatal(err)
			}
			ext[key] = 1
		}
		check := func(step string) {
			t.Helper()
			if errs := VerifyIntegrity(ext, r); len(errs) > 0 {
				t.Fatalf("k=%d %s: %d integrity violations, first: %v", k, step, len(errs), errs[0])
			}
			live := 0
			for _, s := range held {
				if s != nil {
					live++
				}
			}
			if got := int(r.entryOf("src").ndeps.Load()); got != live {
				t.Fatalf("k=%d %s: ndeps %d, %d live dependents", k, step, got, live)
			}
			state++
			r.NotifyChanged("src")
			for i, s := range held {
				if s == nil {
					continue
				}
				if v, err := s.Float(); err != nil || v != state {
					t.Fatalf("k=%d %s: %s = %v, %v after NotifyChanged; want %v", k, step, fanoutKind(i), v, err, state)
				}
			}
		}
		for i := 0; i < k; i++ {
			defineDerived(r, fanoutKind(i), Dep(Self(), "src"))
		}
		for i := 0; i < k; i++ {
			toggle(i)
			check(fmt.Sprintf("include %d", i))
		}
		for _, i := range rng.Perm(k) {
			toggle(i)
			check(fmt.Sprintf("release %d", i))
		}
		for _, i := range rng.Perm(k) {
			toggle(i)
			check(fmt.Sprintf("re-include %d", i))
		}
		for _, s := range held {
			s.Unsubscribe()
		}
		src.Unsubscribe()
	}
}

// TestVerifyIntegrityCatchesBrokenEdges corrupts each half of the edge
// mirror, and each clause of the item-state invariant, in turn and
// expects VerifyIntegrity to object (with the named complaint, where
// one is given).
func TestVerifyIntegrityCatchesBrokenEdges(t *testing.T) {
	env := NewEnv(clock.NewVirtual(), WithBreaker(BreakerPolicy{}))
	r := env.NewRegistry("n")
	defineConst(r, "a", 1.0)
	defineDerived(r, "b", Dep(Self(), "a"), Dep(Self(), "a"))
	defineDerived(r, "c", Dep(Self(), "a"))
	definePeriodicEnd(r, "p", 10)
	defineDeltaAgg(r, "agg", DeltaSum(), Dep(Self(), "c"))
	ext := map[ItemKey]int{}
	for _, k := range []Kind{"b", "p", "agg"} {
		s, err := r.Subscribe(k)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Unsubscribe()
		ext[ItemKey{Registry: "n", Kind: k}] = 1
	}
	if errs := VerifyIntegrity(ext, r); len(errs) > 0 {
		t.Fatalf("clean graph: %v", errs)
	}
	a, b := r.entryOf("a"), r.entryOf("b")
	bi, ci, pi, aggi := b, r.entryOf("c"), r.entryOf("p"), r.entryOf("agg")
	type corruption struct {
		do   func() (undo func())
		want string // a complaint VerifyIntegrity must make; "" = any
	}
	corruptions := map[string]corruption{
		"edge slot": {do: func() func() {
			d := b.deps()
			d[0].back, d[1].back = d[1].back, d[0].back
			return func() { d[0].back, d[1].back = d[1].back, d[0].back }
		}},
		"dependents element": {do: func() func() {
			a.dependents()[2].edge = 7
			return func() { a.dependents()[2].edge = 0 }
		}},
		"fan-out length": {do: func() func() {
			a.ndeps.Store(2)
			return func() { a.ndeps.Store(3) }
		}},
		"drained fan-out keeping its array": {want: "fan-out array is kept", do: func() func() {
			bi.fanout = new(dependent)
			return func() { bi.fanout = nil }
		}},
		"plan mark": {do: func() func() {
			b.planIn = 1
			return func() { b.planIn = 0 }
		}},
		"two slots swapped": {want: "slot table out of order", do: func() func() {
			r.slots[0], r.slots[1] = r.slots[1], r.slots[0]
			return func() { r.slots[0], r.slots[1] = r.slots[1], r.slots[0] }
		}},
		"slot pointing at a private copy of its shape": {want: "not the interned shape", do: func() func() {
			i, _ := r.searchSlot("c")
			sh, cp := r.slots[i].shape, *r.slots[i].shape
			r.slots[i].shape = &cp
			return func() { r.slots[i].shape = sh }
		}},
		"entry built from another shape": {want: "entry filed under wrong key", do: func() func() {
			sh, cp := b.def, *b.def
			b.def = &cp
			return func() { b.def = sh }
		}},
		"shared shape's deps mutated in place": {want: "not the interned shape", do: func() func() {
			b.def.deps[1].Kind = "c"
			return func() { b.def.deps[1].Kind = "a" }
		}},
		"item out of service": {want: "not in service", do: func() func() {
			bi.live = false
			return func() { bi.live = true }
		}},
		"mechanism without its policy": {want: "another policy is installed", do: func() func() {
			bi.mech.Store(int32(PeriodicMechanism))
			return func() { bi.mech.Store(int32(TriggeredMechanism)) }
		}},
		"healthy window policy without task": {want: "boundary task", do: func() func() {
			task := pi.win.Load().task
			pi.win.Load().task = nil
			return func() { pi.win.Load().task = task }
		}},
		"aggregate without delta state": {want: "delta state", do: func() func() {
			sd := aggi.side.Load()
			ds := sd.ds
			sd.ds = nil
			return func() { sd.ds = ds }
		}},
		"delta edge count off by one": {want: "eligible delta-aggregate edges", do: func() func() {
			ci.deltaDeps++
			return func() { ci.deltaDeps-- }
		}},
		"delta edge counted on an ineligible aggregate": {want: "eligible delta-aggregate edges", do: func() func() {
			aggi.delta().eligible = false
			return func() { aggi.delta().eligible = true }
		}},
		"breaker guarding another item": {want: "guards another item", do: func() func() {
			h := bi.breaker()
			h.it = pi
			return func() { h.it = bi }
		}},
		"item without its breaker": {want: "breaker presence", do: func() func() {
			sd := bi.side.Load()
			bi.side.Store(nil)
			return func() { bi.side.Store(sd) }
		}},
		"removed entry holding its item": {want: "removed but still in service", do: func() func() {
			i, _ := r.searchSlot("c")
			c := r.slots[i].entry
			r.slots[i].entry = nil
			return func() { r.slots[i].entry = c }
		}},
	}
	for name, cor := range corruptions {
		undo := cor.do()
		errs := VerifyIntegrity(ext, r)
		if len(errs) == 0 || !strings.Contains(fmt.Sprint(errs), cor.want) {
			t.Errorf("corrupted %s: got %v, want a complaint containing %q", name, errs, cor.want)
		}
		undo()
	}
	if errs := VerifyIntegrity(ext, r); len(errs) > 0 {
		t.Fatalf("restored graph: %v", errs)
	}
}
