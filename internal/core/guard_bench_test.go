package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

// Guard benchmarks of the item hot paths: value reads per mechanism,
// trigger propagation, subscribe/unsubscribe churn, the batched tick
// pipeline with and without the degraded-mode machinery, and the
// monitoring probe. ROADMAP cites BenchmarkTriggerPropagation and the
// lock-free read by name; the structural paths are in
// graph_bench_test.go.

// BenchmarkHealthyOverhead measures what the degraded-mode machinery
// costs when nothing is degraded: the batched-tick workload (1000
// periodic handlers over 4 scopes, each topped by a triggered fan-in,
// one window boundary per op, pool-2 updater) with breaker tracking —
// and then deadline bounding — enabled versus the plain pipeline. The graph is built outside the
// timer so ns/op is the steady-state publish path, not subscribe-time
// setup. Acceptance: the breaker variant stays within 2% of baseline —
// its success path is one lock-free state check before the compute and
// one atomic state load after it. The deadline variant prices the
// generation fence itself — one spawned goroutine, result channel, and
// armed clock event per compute, the cost of being able to abandon a
// hung computation — which is why deadlines are opt-in (graph default
// or per-definition) for computes expensive enough to hang, not free
// insurance on trivial ones. Paired numbers: EXPERIMENTS.md "PR 15";
// PR 4's raw JSON at commit 33e2bdb.
func BenchmarkHealthyOverhead(b *testing.B) {
	const (
		handlers = 1000
		scopes   = 4
		window   = 10
	)
	for _, tc := range []struct {
		name string
		opts []EnvOption
	}{
		{"baseline", nil},
		{"breaker", []EnvOption{
			WithBreaker(DefaultBreakerPolicy),
		}},
		{"breakerAndDeadline", []EnvOption{
			WithBreaker(DefaultBreakerPolicy),
			WithComputeDeadline(1 << 20),
		}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			vc := clock.NewVirtual()
			opts := append([]EnvOption{WithUpdater(NewPoolUpdater(2))}, tc.opts...)
			env := NewEnv(vc, opts...)
			subs := subscribeTickScopes(b, env, scopes, handlers/scopes, window)
			// Warm-up boundary: propagation plans built, pool spun up.
			vc.Advance(window)
			env.Quiesce()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vc.Advance(window)
				env.Quiesce()
			}
			b.StopTimer()
			want := float64(handlers/scopes) * float64(env.Now())
			for _, sub := range subs {
				if got, err := sub.Float(); err != nil || got != want {
					b.Fatalf("agg = %v, %v; want %v", got, err, want)
				}
				sub.Unsubscribe()
			}
			env.updater.Stop()
		})
	}
}

// BenchmarkSubscribeUnsubscribe measures one subscribe/unsubscribe
// cycle over a 10-item dependency chain.
func BenchmarkSubscribeUnsubscribe(b *testing.B) {
	vc := clock.NewVirtual()
	env := NewEnv(vc)
	r := env.NewRegistry("op")
	r.MustDefine(&Definition{
		Kind:  "k0",
		Build: func(*BuildContext) (Handler, error) { return NewStatic(1.0), nil },
	})
	kinds := []Kind{"k0"}
	for i := 1; i <= 10; i++ {
		prev := kinds[i-1]
		kind := Kind("k" + string(rune('0'+i%10)) + string(rune('a'+i/10)))
		r.MustDefine(&Definition{
			Kind: kind,
			Deps: []DepRef{Dep(Self(), prev)},
			Build: func(ctx *BuildContext) (Handler, error) {
				h := ctx.Dep(0)
				return NewTriggered(func(clock.Time) (Value, error) { return h.Float() }), nil
			},
		})
		kinds = append(kinds, kind)
	}
	top := kinds[len(kinds)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := r.Subscribe(top)
		if err != nil {
			b.Fatal(err)
		}
		s.Unsubscribe()
	}
}

// BenchmarkValueRead measures a metadata read per mechanism, on a plain
// env and (breaker-*) on a WithBreaker one, where every non-static item
// has a side block.
func BenchmarkValueRead(b *testing.B) {
	benchValueRead(b, "")
	benchValueRead(b, "breaker-", WithBreaker(BreakerPolicy{}))
}

func benchValueRead(b *testing.B, prefix string, opts ...EnvOption) {
	vc := clock.NewVirtual()
	env := NewEnv(vc, opts...)
	r := env.NewRegistry("op")
	r.MustDefine(&Definition{
		Kind:  "static",
		Build: func(*BuildContext) (Handler, error) { return NewStatic(1.0), nil },
	})
	r.MustDefine(&Definition{
		Kind: "ondemand",
		Build: func(*BuildContext) (Handler, error) {
			return NewOnDemand(func(now clock.Time) (Value, error) { return float64(now), nil }), nil
		},
	})
	r.MustDefine(&Definition{
		Kind: "periodic",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(a, c clock.Time) (Value, error) { return 1.0, nil }), nil
		},
	})
	r.MustDefine(&Definition{
		Kind: "triggered",
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) { return 1.0, nil }), nil
		},
	})
	for _, kind := range []Kind{"static", "ondemand", "periodic", "triggered"} {
		kind := kind
		b.Run(prefix+string(kind), func(b *testing.B) {
			s, err := r.Subscribe(kind)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Unsubscribe()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Value(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// triggerChain defines a 21-item triggered chain — "base", fired by
// event "changed" and returning *v, then 20 items passing their
// dependency's value through unchanged — and subscribes its tail.
func triggerChain(tb testing.TB, v *int) (*Registry, *Subscription) {
	r := NewEnv(clock.NewVirtual()).NewRegistry("op")
	r.MustDefine(&Definition{
		Kind:   "base",
		Events: []string{"changed"},
		Build: func(*BuildContext) (Handler, error) {
			return NewTriggered(func(clock.Time) (Value, error) { return *v, nil }), nil
		},
	})
	prev := Kind("base")
	for i := 0; i < 20; i++ {
		kind := Kind("t" + string(rune('a'+i)))
		p := prev
		r.MustDefine(&Definition{
			Kind: kind,
			Deps: []DepRef{Dep(Self(), p)},
			Build: func(ctx *BuildContext) (Handler, error) {
				h := ctx.Dep(0)
				return NewTriggered(func(clock.Time) (Value, error) { return h.Value() }), nil
			},
		})
		prev = kind
	}
	s, err := r.Subscribe(prev)
	if err != nil {
		tb.Fatal(err)
	}
	return r, s
}

// BenchmarkTriggerPropagation measures one event propagating through
// triggerChain. The chain computes pass the dependency value through
// unchanged (no per-refresh interface boxing) and the base cycles
// runtime-interned small ints, so the reported allocs/op expose the
// propagation machinery itself: with cached propagation plans,
// steady-state propagation over an unchanged graph is allocation-free
// (TestTriggerPropagationAllocs gates it).
func BenchmarkTriggerPropagation(b *testing.B) {
	v := 0
	r, s := triggerChain(b, &v)
	defer s.Unsubscribe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = (v + 1) % 256
		r.FireEvent("changed")
	}
	b.StopTimer()
	if f, err := s.Float(); err != nil || int(f) != v {
		b.Fatalf("chain tail = %v, %v; want %d", f, err, v)
	}
}

// TestTriggerPropagationAllocs is the count gate of the propagation
// path: one steady-state propagation through triggerChain allocates
// nothing. The snapshot chunks a publication draws are amortised over
// 84 publishes, below AllocsPerRun's integer average.
func TestTriggerPropagationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	v := 0
	r, s := triggerChain(t, &v)
	defer s.Unsubscribe()
	fire := func() {
		v = (v + 1) % 256
		r.FireEvent("changed")
	}
	fire() // the propagation plan is built on first use
	if allocs := testing.AllocsPerRun(200, fire); allocs != 0 {
		t.Fatalf("one propagation through a 21-item chain allocates %.0f times, want 0", allocs)
	}
	if f, err := s.Float(); err != nil || int(f) != v {
		t.Fatalf("chain tail = %v, %v; want %d", f, err, v)
	}
}

// TestTriggerPropagationBytes is the byte gate of the same path: every
// publication draws one 24-B snapshot slot, which is garbage for the
// collector once the next replaces it. 21 publications per fire in
// 84-slot chunks that fill the 2,048-B size class read 512 B per fire
// (896 with the error inline in 63-slot chunks of 2,688 B), measured
// from the heap's cumulative allocation over 10^4 fires.
func TestTriggerPropagationBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const fires, ceiling = 10_000, 530
	v := 0
	r, s := triggerChain(t, &v)
	defer s.Unsubscribe()
	r.FireEvent("changed") // the propagation plan is built on first use
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < fires; i++ {
		v = (v + 1) % 256
		r.FireEvent("changed")
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / fires
	t.Logf("%.1f B per propagation through a 21-item chain (ceiling %d)", per, ceiling)
	if per > ceiling {
		t.Fatalf("one propagation through a 21-item chain allocates %.1f B, ceiling %d", per, ceiling)
	}
	if f, err := s.Float(); err != nil || int(f) != v {
		t.Fatalf("chain tail = %v, %v; want %d", f, err, v)
	}
}

// BenchmarkValueReadParallel measures concurrent metadata reads of one
// shared periodic item from many goroutines (run with -cpu 1,4,8). The
// read path is lock-free (atomic snapshot), so throughput should scale
// with cores instead of serializing on a lock.
func BenchmarkValueReadParallel(b *testing.B) {
	vc := clock.NewVirtual()
	env := NewEnv(vc)
	r := env.NewRegistry("op")
	r.MustDefine(&Definition{
		Kind: "periodic",
		Build: func(*BuildContext) (Handler, error) {
			return NewPeriodic(10, func(a, c clock.Time) (Value, error) { return 1.0, nil }), nil
		},
	})
	s, err := r.Subscribe("periodic")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Unsubscribe()
	vc.Advance(100)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Value(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSubscribeChurnParallel measures subscribe/unsubscribe churn
// over independent registries from many goroutines (run with
// -cpu 1,4,8). Each registry is its own dependency-scope component, so
// with per-scope structural locks the churn parallelizes; under a
// global graph lock it serializes.
func BenchmarkSubscribeChurnParallel(b *testing.B) {
	vc := clock.NewVirtual()
	env := NewEnv(vc)
	const nregs = 64
	regs := make([]*Registry, nregs)
	for i := range regs {
		r := env.NewRegistry("op" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		r.MustDefine(&Definition{
			Kind:  "base",
			Build: func(*BuildContext) (Handler, error) { return NewStatic(1.0), nil },
		})
		r.MustDefine(&Definition{
			Kind: "derived",
			Deps: []DepRef{Dep(Self(), "base")},
			Build: func(ctx *BuildContext) (Handler, error) {
				h := ctx.Dep(0)
				return NewTriggered(func(clock.Time) (Value, error) { return h.Float() }), nil
			},
		})
		regs[i] = r
	}
	var next int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := regs[int(atomic.AddInt64(&next, 1))%nregs]
		for pb.Next() {
			s, err := r.Subscribe("derived")
			if err != nil {
				b.Error(err)
				return
			}
			s.Unsubscribe()
		}
	})
}

// BenchmarkProbeOverhead measures the element-path cost of an inactive
// vs active monitoring probe — the "overhead for counting incoming
// elements is low" claim.
func BenchmarkProbeOverhead(b *testing.B) {
	var c Counter
	b.Run("inactive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	c.Activate()
	b.Run("active", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}
