package main

import (
	"fmt"
	"time"

	"repro/pipes"
)

// runWall runs mdserve's demo pipeline (src -> even filter -> sink,
// arrivals every 10 ms, stats once per second) paced by the wall clock
// for the given number of seconds: once per wall second it releases
// the next 1000 time units of the simulation (one unit is one
// millisecond) and prints the filter's live metadata.
func runWall(seconds int) {
	sys := pipes.NewSystem(pipes.WithStatWindow(1000))
	schema := pipes.Schema{Name: "ticks", Fields: []pipes.Field{{Name: "v", Type: "int"}}}
	f := sys.Source("src", schema, pipes.NewConstantRate(10, 10, 0), 0).
		Filter("even", func(tp pipes.Tuple) bool { return tp[0].(int)%2 == 0 })
	f.Sink("sink", nil)

	var subs [3]*pipes.Subscription
	for i, kind := range []pipes.Kind{pipes.KindInputRate, pipes.KindSelectivity, pipes.KindAvgInputRate} {
		sub, err := f.Subscribe(kind)
		must(err)
		defer sub.Unsubscribe()
		subs[i] = sub
	}

	fmt.Printf("wall-clock mode: %d seconds, arrivals every 10ms (true rate 0.1/ms)\n", seconds)
	fmt.Printf("%8s %12s %12s %12s\n", "t(ms)", "inputRate", "selectivity", "avgRate")
	for s := 1; s <= seconds; s++ {
		time.Sleep(time.Second)
		sys.Run(pipes.Time(s * 1000))
		rv, _ := subs[0].Float()
		sv, _ := subs[1].Float()
		av, _ := subs[2].Float()
		fmt.Printf("%8d %12.4f %12.3f %12.4f\n", sys.Now(), rv, sv, av)
	}
}
