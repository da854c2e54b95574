package pipes

import "testing"

// TestDeltaAggregateThroughFacade registers a custom delta aggregate
// over a node's periodic rate items and checks it rides the O(1) delta
// channel while matching the values read directly.
func TestDeltaAggregateThroughFacade(t *testing.T) {
	sys := NewSystem(WithStatWindow(50))
	src := sys.Source("src", intSchema, NewConstantRate(0, 5, 0), 0)
	f := src.Filter("f", func(Tuple) bool { return true })
	f.Sink("out", nil)

	f.Metadata().MustDefine(&Definition{
		Kind: "traffic",
		Deps: []DepRef{
			Dep(SelfNode(), KindInputRate),
			Dep(SelfNode(), KindOutputRate),
		},
		Delta: DeltaSum(),
		Build: NewDeltaAggregate,
	})
	traffic, err := f.Subscribe("traffic")
	if err != nil {
		t.Fatal(err)
	}
	defer traffic.Unsubscribe()
	in, err := f.Subscribe(KindInputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Unsubscribe()
	out, err := f.Subscribe(KindOutputRate)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Unsubscribe()

	sys.Run(500)
	tv, err := traffic.Float()
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := in.Float()
	ov, _ := out.Float()
	if tv != iv+ov || tv == 0 {
		t.Fatalf("traffic = %v, want inRate+outRate = %v (nonzero)", tv, iv+ov)
	}
	st := sys.Env().Stats().Snapshot()
	if st.DeltaFires == 0 {
		t.Fatalf("delta channel never fired: %+v", st)
	}
}
