// Replay demonstrates reproducible experimentation: record a random
// workload to a CSV trace, replay the trace through the same query
// twice, and verify that every measured metadata value is identical
// across runs — the determinism the virtual clock and trace
// persistence provide for system profiling (Section 1's fourth
// motivating application: "metadata profiling is often useful for
// ... experimental performance evaluations").
//
// Run with:
//
//	go run ./examples/replay
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/pipes"
)

var schema = pipes.Schema{Name: "orders", Fields: []pipes.Field{
	{Name: "item", Type: "int"},
	{Name: "qty", Type: "int"},
}}

// run replays a trace through the demo query and returns the final
// measured metadata values.
func run(tr *pipes.Trace) map[string]float64 {
	tr.Reset()
	sys := pipes.NewSystem(pipes.WithStatWindow(100))
	src := sys.Source("orders", schema, tr, 0)
	big := src.Filter("big", func(t pipes.Tuple) bool { return t[1].(int) >= 5 })
	sum := big.Window("w", 300).GroupAggregate("perItem", 0, pipes.NewSum(1))
	sum.Sink("out", nil)

	out := map[string]float64{}
	for name, sub := range map[string]*pipes.Stream{
		"selectivity": big, "stateSize": sum,
	} {
		kind := pipes.KindSelectivity
		if name == "stateSize" {
			kind = pipes.KindStateSize
		}
		s, err := sub.Subscribe(kind)
		check(err)
		defer s.Unsubscribe()
		defer func(name string, s *pipes.Subscription) {
			v, _ := s.Float()
			out[name] = v
		}(name, s)
	}
	rate, err := src.Subscribe(pipes.KindOutputRate)
	check(err)
	defer rate.Unsubscribe()
	defer func() {
		v, _ := rate.Float()
		out["rate"] = v
	}()

	sys.Run(5_000)
	return out
}

func main() {
	// Record a Poisson workload with random quantities into a trace.
	gen := pipes.NewPoisson(0, 0.1, 1000, 2026)
	gen.MakeTup = func(i int) pipes.Tuple { return pipes.Tuple{i % 5, (i * 7) % 10} }
	trace := pipes.Record(gen, 0)

	// Persist to CSV and load it back.
	var buf bytes.Buffer
	check(trace.WriteCSV(&buf, schema))
	fmt.Printf("recorded %d arrivals (%d bytes of CSV)\n", trace.Len(), buf.Len())
	loaded, err := pipes.ReadTraceCSV(bytes.NewReader(buf.Bytes()), schema)
	check(err)

	// Replay twice: metadata must be bit-identical.
	a := run(loaded)
	b := run(loaded)
	fmt.Printf("%-12s %14s %14s %s\n", "metadata", "run 1", "run 2", "identical")
	allSame := true
	for _, k := range []string{"rate", "selectivity", "stateSize"} {
		same := a[k] == b[k]
		allSame = allSame && same
		fmt.Printf("%-12s %14.6f %14.6f %v\n", k, a[k], b[k], same)
	}
	if !allSame {
		fmt.Println("REPLAY DIVERGED")
		os.Exit(1)
	}
	fmt.Println("replay reproduced every measurement exactly")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
