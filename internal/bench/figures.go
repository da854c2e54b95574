package bench

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/stream"
)

// e1Result reproduces Figure 4: two consumers measuring the input rate
// of a constant-rate stream (one element every 10 units, true rate
// 0.1) concurrently. The naive scheme — an on-demand computation over
// a shared reset-on-read counter — lets the consumers corrupt each
// other's measurements; the shared periodic handler returns the
// correct rate to both.
type e1Result struct {
	// TrueRate is the analytic input rate (0.1).
	TrueRate float64
	// User1Naive and User2Naive are the rates the two naive consumers
	// computed at their access times (steady state after the first
	// access each).
	User1Naive []float64
	User2Naive []float64
	// User1Periodic and User2Periodic are the values both consumers
	// read from the shared periodic handler at the same access times.
	User1Periodic []float64
	User2Periodic []float64
}

// runE1 executes the Figure 4 scenario. Arrivals occur every 10 units;
// both users access every 50 units, user 2 offset by 20 (the figure's
// interleaving). accesses is the number of accesses per user.
func runE1(accesses int) *e1Result {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	r := env.NewRegistry("op")

	// Naive scheme: a shared counter, reset at every read, divided by
	// the time since the *reader's* previous access.
	var naive core.Counter
	naive.Activate()

	// Correct scheme: the framework's periodic input-rate handler over
	// its own probe.
	var probe core.Counter
	r.MustDefine(&core.Definition{
		Kind:  "inputRate",
		Probe: &probe,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewPeriodic(50, func(start, end clock.Time) (core.Value, error) {
				w := end.Sub(start)
				if w == 0 {
					return 0.0, nil
				}
				return float64(probe.Take()) / float64(w), nil
			}), nil
		},
	})
	sub1, err := r.Subscribe("inputRate")
	if err != nil {
		panic(err)
	}
	defer sub1.Unsubscribe()
	sub2, err := r.Subscribe("inputRate")
	if err != nil {
		panic(err)
	}
	defer sub2.Unsubscribe()

	// Element arrivals: one every 10 units.
	gen := stream.NewConstantRate(10, 10, 0)
	var scheduleArrival func()
	scheduleArrival = func() {
		a, _ := gen.Next()
		vc.Schedule(a.At, func(clock.Time) {
			naive.Inc()
			probe.Inc()
			scheduleArrival()
		})
	}
	scheduleArrival()

	res := &e1Result{TrueRate: 0.1}

	// Consumer access schedules: user 1 at 51, 101, ...; user 2 at
	// 71, 121, ... (one unit past the window boundaries, so the
	// periodic handler has published the preceding window). Both
	// naive reads share (and reset) one counter.
	last1, last2 := clock.Time(1), clock.Time(21)
	for i := 0; i < accesses; i++ {
		at1 := clock.Time(50*(i+1) + 1)
		vc.Schedule(at1, func(now clock.Time) {
			rate := float64(naive.Take()) / float64(now.Sub(last1))
			last1 = now
			res.User1Naive = append(res.User1Naive, rate)
			v, _ := sub1.Float()
			res.User1Periodic = append(res.User1Periodic, v)
		})
		at2 := clock.Time(50*(i+1) + 21)
		vc.Schedule(at2, func(now clock.Time) {
			rate := float64(naive.Take()) / float64(now.Sub(last2))
			last2 = now
			res.User2Naive = append(res.User2Naive, rate)
			v, _ := sub2.Float()
			res.User2Periodic = append(res.User2Periodic, v)
		})
	}
	vc.AdvanceTo(clock.Time(50*(accesses+1) + 20))
	return res
}

// table renders the Figure 4 comparison.
func (r *e1Result) table() *Table {
	t := &Table{
		Title:  "E1 / Figure 4 — problems with concurrent periodic access",
		Note:   "true input rate 0.1; naive on-demand sharing corrupts both users, the shared periodic handler is exact",
		Header: []string{"access#", "user1 naive", "user2 naive", "user1 periodic", "user2 periodic"},
	}
	for i := range r.User1Naive {
		u2n, u2p := "-", "-"
		if i < len(r.User2Naive) {
			u2n = trimFloat(r.User2Naive[i])
			u2p = trimFloat(r.User2Periodic[i])
		}
		t.Add(i+1, trimFloat(r.User1Naive[i]), u2n, trimFloat(r.User1Periodic[i]), u2p)
	}
	return t
}

// trimFloat formats a float compactly.
func trimFloat(f float64) string {
	t := &Table{}
	t.Add(f)
	return t.Rows[0][0]
}

// e2Result reproduces Figure 5: on a bursty stream, an on-demand
// average over the periodic input rate — sampled whenever consumers
// happen to look, here at burst peaks — reports the peak rate instead
// of the mean, while a triggered average synchronized with the input
// rate's updates is correct.
type e2Result struct {
	// TrueMean is the analytic long-run mean rate.
	TrueMean float64
	// PeakRate is the in-burst rate.
	PeakRate float64
	// OnDemandAvg is the average computed by the unsynchronized
	// on-demand handler sampled at burst peaks.
	OnDemandAvg float64
	// TriggeredAvg is the average maintained by the triggered handler.
	TriggeredAvg float64
}

// runE2 executes the Figure 5 scenario: bursts of 1 element/unit for
// onDur units followed by offDur units of silence, for the given
// number of cycles. The periodic input rate updates every window
// units; the on-demand average is accessed once per burst, mid-burst.
func runE2(onDur, offDur clock.Duration, window clock.Duration, cycles int) *e2Result {
	vc := clock.NewVirtual()
	env := core.NewEnv(vc)
	r := env.NewRegistry("op")

	gen := stream.NewBursty(0, 1, onDur, offDur, 0)

	var probe core.Counter
	r.MustDefine(&core.Definition{
		Kind:  "inputRate",
		Probe: &probe,
		Build: func(*core.BuildContext) (core.Handler, error) {
			return core.NewPeriodic(window, func(start, end clock.Time) (core.Value, error) {
				w := end.Sub(start)
				if w == 0 {
					return 0.0, nil
				}
				return float64(probe.Take()) / float64(w), nil
			}), nil
		},
	})
	// Wrong: on-demand average sampling the current input rate at
	// access time (the paper's case (i): updates between accesses are
	// missed; sampling at peaks biases toward the peak rate).
	r.MustDefine(&core.Definition{
		Kind: "avgOnDemand",
		Deps: []core.DepRef{core.Dep(core.Self(), "inputRate")},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			dep := ctx.Dep(0)
			n, sum := 0.0, 0.0
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				v, err := dep.Float()
				if err != nil {
					return nil, err
				}
				n++
				sum += v
				return sum / n, nil
			}), nil
		},
	})
	// Right: triggered average refreshed on every input-rate update.
	r.MustDefine(&core.Definition{
		Kind: "avgTriggered",
		Deps: []core.DepRef{core.Dep(core.Self(), "inputRate")},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			dep := ctx.Dep(0)
			n, sum := 0.0, 0.0
			return core.NewTriggered(func(clock.Time) (core.Value, error) {
				v, err := dep.Float()
				if err != nil {
					return nil, err
				}
				n++
				sum += v
				return sum / n, nil
			}), nil
		},
	})

	od, err := r.Subscribe("avgOnDemand")
	if err != nil {
		panic(err)
	}
	defer od.Unsubscribe()
	tg, err := r.Subscribe("avgTriggered")
	if err != nil {
		panic(err)
	}
	defer tg.Unsubscribe()

	// Arrivals.
	var scheduleArrival func()
	scheduleArrival = func() {
		a, ok := gen.Next()
		if !ok {
			return
		}
		vc.Schedule(a.At, func(clock.Time) {
			probe.Inc()
			scheduleArrival()
		})
	}
	scheduleArrival()

	// Consumer accesses the on-demand average mid-burst, one window
	// into each burst (so the last published window lies fully inside
	// the burst and reports the peak rate).
	cycle := onDur + offDur
	var lastOD float64
	for c := 0; c < cycles; c++ {
		at := clock.Time(clock.Duration(c)*cycle + window + 1)
		vc.Schedule(at, func(clock.Time) {
			v, _ := od.Float()
			lastOD = v
		})
	}
	vc.AdvanceTo(clock.Time(clock.Duration(cycles) * cycle))

	tgv, _ := tg.Float()
	return &e2Result{
		TrueMean:     stream.NewBursty(0, 1, onDur, offDur, 0).MeanRate(),
		PeakRate:     1,
		OnDemandAvg:  lastOD,
		TriggeredAvg: tgv,
	}
}

// table renders the Figure 5 comparison.
func (r *e2Result) table() *Table {
	t := &Table{
		Title:  "E2 / Figure 5 — problems with on-demand aggregation",
		Note:   "bursty arrivals: the on-demand average sampled at peaks reports ~the peak rate; the triggered average reports the true mean",
		Header: []string{"quantity", "value"},
	}
	t.Add("true mean rate", r.TrueMean)
	t.Add("peak rate", r.PeakRate)
	t.Add("on-demand average (wrong)", r.OnDemandAvg)
	t.Add("triggered average (correct)", r.TriggeredAvg)
	return t
}
