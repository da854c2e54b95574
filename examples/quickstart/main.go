// Quickstart: build the Figure 1 style query graph — raw sensor
// streams at the bottom, a shared operator graph in the middle, sinks
// connecting applications at the top — and access metadata on demand.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/pipes"
)

func main() {
	sys := pipes.NewSystem(pipes.WithStatWindow(100))

	// A sensor stream: (sensorID, temperature), one reading every 5
	// time units.
	schema := pipes.Schema{Name: "readings", Fields: []pipes.Field{
		{Name: "sensor", Type: "int"},
		{Name: "temp", Type: "int"},
	}}
	gen := pipes.NewConstantRate(0, 5, 0)
	gen.MakeTup = func(i int) pipes.Tuple {
		return pipes.Tuple{i % 4, 15 + (i*7)%25} // temps 15..39
	}
	readings := sys.Source("sensors", schema, gen, 0.2)

	// A shared subquery: the hot-readings filter feeds two
	// applications (subquery sharing).
	hot := readings.Filter("hot", func(t pipes.Tuple) bool { return t[1].(int) >= 30 })

	alerts := 0
	hot.Sink("alerting", func(e pipes.Element) { alerts++ })

	// Second application: count hot readings per sensor over a
	// 500-unit sliding window.
	perSensor := hot.Window("recent", 500).GroupAggregate("counts", 0, pipes.NewCount())
	var lastCount pipes.Tuple
	perSensor.Sink("dashboard", func(e pipes.Element) { lastCount = e.Tuple })

	// Third application: merge a second site's sensors (one reading
	// every 10 units) with the first, convert to Fahrenheit, and
	// average 8 consecutive readings of either site: the count window
	// releases a reading, valid until the 8th reading after it, when
	// that one arrives.
	annexGen := pipes.NewConstantRate(2, 10, 0)
	annexGen.MakeTup = func(i int) pipes.Tuple { return pipes.Tuple{4 + i%2, 10 + (i*3)%15} }
	annex := sys.Source("annex", schema, annexGen, 0.1)
	fahrenheit := readings.Union("allSites", annex).
		Map("toF", schema, func(t pipes.Tuple) pipes.Tuple { return pipes.Tuple{t[0], t[1].(int)*9/5 + 32} })
	trend := fahrenheit.CountWindow("last8", 8).Aggregate("meanF", pipes.NewAvg(1))
	var meanF float64
	trend.Sink("trend", func(e pipes.Element) { meanF = e.Tuple[0].(float64) })

	// Metadata on demand: subscribing creates exactly the handlers
	// needed — here the filter's selectivity (periodic measurement)
	// and its running average input rate (triggered, which implicitly
	// includes the periodic input rate it depends on).
	sel, err := hot.Subscribe(pipes.KindSelectivity)
	check(err)
	defer sel.Unsubscribe()
	avgRate, err := hot.Subscribe(pipes.KindAvgInputRate)
	check(err)
	defer avgRate.Unsubscribe()

	sys.Run(10_000)

	selV, _ := sel.Float()
	avgV, _ := avgRate.Float()
	fmt.Printf("after %d time units:\n", sys.Now())
	fmt.Printf("  alerts delivered:        %d\n", alerts)
	fmt.Printf("  last per-sensor count:   %v\n", lastCount)
	fmt.Printf("  8-reading mean (F):      %.1f (both sites)\n", meanF)
	fmt.Printf("  hot-filter selectivity:  %.3f (measured periodically)\n", selV)
	fmt.Printf("  avg input rate:          %.3f elements/unit (triggered running average)\n", avgV)
	fmt.Println("\nmetadata inventory (only subscribed items have handlers):")
	fmt.Println(sys.Inventory())
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
