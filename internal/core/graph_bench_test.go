package core

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/clock"
)

// Microbenchmarks of the dependency graph's structural paths, on the
// plane shape of footprint_test.go. Run with -benchmem: allocations per
// operation are the figure the flat graph is built around.

// BenchmarkIncludeCold41 is one cold pipeline inclusion — 41 items,
// depth-first from mem_sum — and its release.
func BenchmarkIncludeCold41(b *testing.B) {
	p := buildTestPlane(NewEnv(clock.NewVirtual()), planeTenants)
	pl := p.pipelines[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := pl.Subscribe("mem_sum")
		if err != nil {
			b.Fatal(err)
		}
		s.Unsubscribe()
	}
}

// fanoutRegistry defines one source and n triggered dependents of it in
// a single registry, plus `all`, which depends on every dependent: one
// subscription on `all` holds the whole fan-out.
func fanoutRegistry(env *Env, n int) *Registry {
	r := env.NewRegistry("fan")
	defineConst(r, "src", 1.0)
	deps := make([]DepRef, n)
	for i := range deps {
		k := Kind("d" + strconv.Itoa(i))
		defineDerived(r, k, Dep(Self(), "src"))
		deps[i] = Dep(Self(), k)
	}
	defineDerived(r, "all", deps...)
	return r
}

// BenchmarkReleaseFanout10k tears down (and, untimed, rebuilds) a
// source with 10,000 dependents: the unlink cost per edge must not grow
// with the fan-out.
func BenchmarkReleaseFanout10k(b *testing.B) {
	const fanout = 10000
	r := fanoutRegistry(NewEnv(clock.NewVirtual()), fanout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := r.Subscribe("all")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.Unsubscribe()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*fanout), "ns/edge")
}

// BenchmarkPropagateSeeds is the plan-cache miss path: seed collection
// over a source's dependents plus the plan build, on a 20-pipeline
// plane, each iteration on another operator's source after a structural
// bump dropped the cached plans.
func BenchmarkPropagateSeeds(b *testing.B) {
	env := NewEnv(clock.NewVirtual())
	p := buildTestPlane(env, 20)
	held := p.subscribeAll(b)
	defer func() {
		for _, s := range held {
			s.Unsubscribe()
		}
	}()
	var ops []*Registry
	for _, r := range p.regs {
		if r.IsIncluded("in") {
			ops = append(ops, r)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ops[i%len(ops)]
		sc := env.lockScope(r)
		bumpStruct(r)
		sc.unlock()
		r.NotifyChanged("in")
	}
	if misses := env.Stats().PlanCacheMisses.Load(); misses < int64(b.N) {
		b.Fatalf("%d plan-cache misses in %d propagations", misses, b.N)
	}
}

// BenchmarkSlotLookup is one slot-table lookup at 1 to 64 kinds per
// registry: Peek of the kind that sorts last (a hit, plus the value
// read) and IsDefined of a kind past it (a miss).
func BenchmarkSlotLookup(b *testing.B) {
	for _, n := range []int{1, 4, 8, 64} {
		r, last := tableRegistry(NewEnv(clock.NewVirtual()), "kinds", n), tableKind(n-1)
		if _, err := r.Subscribe(last); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Peek/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Peek(last); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Miss/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r.IsDefined("zz") {
					b.Fatal("zz is defined")
				}
			}
		})
	}
}

// BenchmarkDefine registers the benchmark operator's four kinds on a
// fresh registry; the Definition literals are the caller's and count.
// hit is every operator after a plane's first — the env holds all four
// shapes; miss gives each registry kinds of its own (the suffix is one
// more allocation per kind), so every Define interns a new shape.
func BenchmarkDefine(b *testing.B) {
	for _, name := range []string{"hit", "miss"} {
		miss := name == "miss"
		b.Run(name, func(b *testing.B) {
			env := NewEnv(clock.NewVirtual())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				suffix := ""
				if miss {
					suffix = strconv.Itoa(i)
				}
				in, rate, sel := Kind("in"+suffix), Kind("rate"+suffix), Kind("sel"+suffix)
				r := env.NewRegistry("op")
				defineConst(r, in, 1.0)
				defineConst(r, rate, 1.0)
				defineDerived(r, sel, Dep(Self(), in))
				defineDerived(r, Kind("est"+suffix), Dep(Self(), sel), Dep(Self(), rate))
			}
		})
	}
}

// BenchmarkMigrate flips one included adaptive item of an eight-kind
// registry between its triggered and on-demand forms: the slot search,
// the factory, the policy swap and the announcement.
func BenchmarkMigrate(b *testing.B) {
	r := tableRegistry(NewEnv(clock.NewVirtual()), "kinds", 7)
	defineAdaptive(r, "m", TriggeredMechanism, 10, 1, Dep(Self(), tableKind(0)))
	if _, err := r.Subscribe("m"); err != nil {
		b.Fatal(err)
	}
	mechs := [2]Mechanism{OnDemandMechanism, TriggeredMechanism}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Migrate("m", mechs[i%2], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSlots is the checkpoint's pass over one ten-kind
// registry with every item included, into a reused buffer.
func BenchmarkAppendSlots(b *testing.B) {
	r := NewEnv(clock.NewVirtual()).NewRegistry("n")
	defineConst(r, "k0", 1.0)
	for i := 1; i < 10; i++ {
		defineDerived(r, Kind("k"+strconv.Itoa(i)), Dep(Self(), Kind("k"+strconv.Itoa(i-1))))
	}
	if _, err := r.Subscribe("k9"); err != nil {
		b.Fatal(err)
	}
	var dst []SlotState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.AppendSlots(dst[:0])
	}
	if len(dst) != 10 || !dst[9].Included {
		b.Fatalf("AppendSlots returned %d slots", len(dst))
	}
}
