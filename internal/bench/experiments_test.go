package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestE3OnDemandBeatsMaintainAll(t *testing.T) {
	rows := runE3([]int{20, 80}, 0.1, 2000)
	byKey := map[string]e3Row{}
	for _, r := range rows {
		byKey[r.Policy+"/"+strconv.Itoa(r.Operators)] = r
	}
	// On-demand must be much cheaper at every size.
	for _, n := range []string{"20", "80"} {
		all := byKey["maintain-all/"+n]
		od := byKey["on-demand/"+n]
		if od.UpdateWork*5 > all.UpdateWork {
			t.Fatalf("n=%s: on-demand work %d not ≪ maintain-all %d", n, od.UpdateWork, all.UpdateWork)
		}
		if od.Handlers >= all.Handlers {
			t.Fatalf("n=%s: on-demand handlers %d not < maintain-all %d", n, od.Handlers, all.Handlers)
		}
	}
	// Maintain-all grows linearly with n (4x operators => ~4x work);
	// on-demand grows with f*n.
	all20, all80 := byKey["maintain-all/20"], byKey["maintain-all/80"]
	ratio := float64(all80.UpdateWork) / float64(all20.UpdateWork)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("maintain-all scaling 20->80 = %.2fx, want ~4x", ratio)
	}
}

func TestE4TradeOffShape(t *testing.T) {
	windows := []clock.Duration{10, 50, 200}
	rows := runE4(windows, 1.0, 0.2, 500, 4000)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Updates fall as the window grows.
	if !(rows[0].Updates > rows[1].Updates && rows[1].Updates > rows[2].Updates) {
		t.Fatalf("updates not decreasing: %+v", rows)
	}
	// Update counts are duration/window exactly.
	if rows[0].Updates != 400 || rows[2].Updates != 20 {
		t.Fatalf("updates = %d/%d, want 400/20", rows[0].Updates, rows[2].Updates)
	}
	// Staleness error grows with the window.
	if !(rows[0].MeanAbsError < rows[1].MeanAbsError && rows[1].MeanAbsError < rows[2].MeanAbsError) {
		t.Fatalf("error not increasing: %+v", rows)
	}
}

func TestE5TriggeredTracksChangeRate(t *testing.T) {
	rows := runE5([]clock.Duration{50, 400}, 20, 4000)
	get := func(ci clock.Duration, mech string) e5Row {
		for _, r := range rows {
			if r.ChangeEvery == ci && r.Mechanism == mech {
				return r
			}
		}
		t.Fatalf("missing row %d/%s", ci, mech)
		return e5Row{}
	}
	// Triggered updates equal the number of changes.
	if got := get(50, "triggered").Updates; got != 80 {
		t.Fatalf("triggered updates at ci=50: %d, want 80", got)
	}
	if got := get(400, "triggered").Updates; got != 10 {
		t.Fatalf("triggered updates at ci=400: %d, want 10", got)
	}
	// Periodic updates are constant in the change rate.
	if a, b := get(50, "periodic").Updates, get(400, "periodic").Updates; a != b {
		t.Fatalf("periodic updates vary with change rate: %d vs %d", a, b)
	}
	// Triggered is never stale; periodic is stale part of the time.
	if got := get(400, "triggered").StaleFraction; got != 0 {
		t.Fatalf("triggered stale fraction = %v, want 0", got)
	}
	if got := get(400, "periodic").StaleFraction; got == 0 {
		t.Fatal("periodic never stale — staleness probe broken")
	}
	// For rarely changing items, triggered does less work than
	// periodic (the Section 3.2.3 claim).
	if get(400, "triggered").Updates >= get(400, "periodic").Updates {
		t.Fatal("triggered not cheaper for rarely changing item")
	}
}

func TestE6SharingConstantUnsharedLinear(t *testing.T) {
	rows := runE6([]int{1, 8, 32}, 1000)
	get := func(k int, shared bool) e6Row {
		for _, r := range rows {
			if r.Consumers == k && r.Shared == shared {
				return r
			}
		}
		t.Fatalf("missing row %d/%v", k, shared)
		return e6Row{}
	}
	// Shared: exactly one handler and constant work for any k.
	for _, k := range []int{1, 8, 32} {
		if got := get(k, true).Handlers; got != 1 {
			t.Fatalf("shared handlers at k=%d: %d, want 1", k, got)
		}
	}
	if a, b := get(1, true).UpdateWork, get(32, true).UpdateWork; a != b {
		t.Fatalf("shared update work grew with consumers: %d -> %d", a, b)
	}
	// Unshared: k handlers, k-fold work.
	if got := get(32, false).Handlers; got != 32 {
		t.Fatalf("unshared handlers at k=32: %d, want 32", got)
	}
	if get(32, false).UpdateWork != 32*get(1, false).UpdateWork {
		t.Fatalf("unshared work not linear: %d vs 32*%d",
			get(32, false).UpdateWork, get(1, false).UpdateWork)
	}
}

func TestE7TraversalCosts(t *testing.T) {
	rows := runE7([]int{1, 10, 100})
	for i, d := range []int{1, 10, 100} {
		r := rows[i]
		if r.FirstTraversals != int64(d+1) {
			t.Fatalf("depth %d: first traversals = %d, want %d", d, r.FirstTraversals, d+1)
		}
		if r.SecondTraversals != 0 {
			t.Fatalf("depth %d: re-subscription traversed %d steps, want 0", d, r.SecondTraversals)
		}
		if r.IncludedItems != d+1 {
			t.Fatalf("depth %d: included %d, want %d", d, r.IncludedItems, d+1)
		}
	}
}

func TestE8EstimateStepsAtResize(t *testing.T) {
	res := runE8(0.1, 100, 4000, 100)
	if len(res.Samples) < 30 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	var before, after e8Sample
	for _, s := range res.Samples {
		if s.At < res.ResizeAt {
			before = s
		}
		if s.At > res.ResizeAt+clock.Time(200) && after.At == 0 {
			after = s
		}
	}
	// The estimate halves (plus the rate terms) when windows halve.
	if !(after.EstCPU < before.EstCPU) {
		t.Fatalf("estimate did not drop after resize: %v -> %v", before.EstCPU, after.EstCPU)
	}
	if after.WindowSize != 50 {
		t.Fatalf("window = %d after resize, want 50", after.WindowSize)
	}
	// The estimate tracks the measurement within 2x in steady state
	// (both before and well after the resize).
	last := res.Samples[len(res.Samples)-1]
	for _, s := range []e8Sample{before, last} {
		if s.MeasCPU <= 0 {
			t.Fatalf("no measured CPU at t=%d", s.At)
		}
		ratio := s.EstCPU / s.MeasCPU
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("t=%d: est %v vs meas %v (ratio %.2f)", s.At, s.EstCPU, s.MeasCPU, ratio)
		}
	}
}

func TestE10ChainMinimizesQueueMemory(t *testing.T) {
	rows := runE10(1200)
	byName := map[string]e10Row{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	chain, rr, fifo := byName["chain"], byName["roundrobin"], byName["fifo"]
	if chain.PeakQueueBytes >= rr.PeakQueueBytes {
		t.Fatalf("chain peak %d not below roundrobin %d", chain.PeakQueueBytes, rr.PeakQueueBytes)
	}
	if chain.PeakQueueBytes >= fifo.PeakQueueBytes {
		t.Fatalf("chain peak %d not below fifo %d", chain.PeakQueueBytes, fifo.PeakQueueBytes)
	}
}

func TestE11SheddingBoundsLoad(t *testing.T) {
	rows := runE11(5, 12000)
	var with, without e11Row
	for _, r := range rows {
		if r.Shedding {
			with = r
		} else {
			without = r
		}
	}
	if without.FinalMeasuredCPU < 5*2 {
		t.Fatalf("unshedded load %v not clearly above capacity", without.FinalMeasuredCPU)
	}
	if with.FinalMeasuredCPU > 5*1.5 {
		t.Fatalf("shedded load %v not near capacity 5", with.FinalMeasuredCPU)
	}
	if with.FinalDropP <= 0 {
		t.Fatal("drop probability never raised")
	}
}

func TestE12AutoRemovalBoundsState(t *testing.T) {
	rows := runE12(200, 10, 20)
	var auto, noAuto e12Row
	for _, r := range rows {
		if r.AutoRemoval {
			auto = r
		} else {
			noAuto = r
		}
	}
	if auto.LiveHandlers != 0 {
		t.Fatalf("auto-removal left %d handlers", auto.LiveHandlers)
	}
	if noAuto.LiveHandlers != 10 {
		t.Fatalf("baseline live handlers = %d, want pool size 10", noAuto.LiveHandlers)
	}
	if auto.UpdateWork >= noAuto.UpdateWork {
		t.Fatalf("auto-removal work %d not below baseline %d", auto.UpdateWork, noAuto.UpdateWork)
	}
}

func TestE13DynamicResolutionAvoidsChain(t *testing.T) {
	rows := runE13(50)
	var static, dyn e13Row
	for _, r := range rows {
		if r.Resolution == "static" {
			static = r
		} else {
			dyn = r
		}
	}
	// Static resolution includes the 51-item chain plus A; dynamic
	// only A (C is already provided).
	if dyn.Traversals != 1 {
		t.Fatalf("dynamic traversals = %d, want 1", dyn.Traversals)
	}
	if static.Traversals != 52 {
		t.Fatalf("static traversals = %d, want 52", static.Traversals)
	}
	if dyn.IncludedItems >= static.IncludedItems {
		t.Fatalf("dynamic included %d not below static %d", dyn.IncludedItems, static.IncludedItems)
	}
}

func TestE14OverrideValues(t *testing.T) {
	r := runE14()
	if r.BaseMemUsage != 100 {
		t.Fatalf("base memUsage = %v, want 100", r.BaseMemUsage)
	}
	if r.OverriddenMemUsage != 140 {
		t.Fatalf("overridden memUsage = %v, want 140", r.OverriddenMemUsage)
	}
	if r.HandlersOverridden != r.HandlersBase+1 {
		t.Fatalf("override created %d handlers vs base %d, want exactly one more (indexMem)",
			r.HandlersOverridden, r.HandlersBase)
	}
}

func TestE15HashModuleCheaper(t *testing.T) {
	rows := runE15(20, 3000)
	var list, hash e15Row
	for _, r := range rows {
		if r.Impl == "list" {
			list = r
		} else {
			hash = r
		}
	}
	if hash.MeasuredCPU >= list.MeasuredCPU {
		t.Fatalf("hash CPU %v not below list %v", hash.MeasuredCPU, list.MeasuredCPU)
	}
	if list.MemUsage <= 0 || hash.MemUsage <= 0 {
		t.Fatal("module memory metadata missing")
	}
	if list.ModuleItems < 2 || hash.ModuleItems < 2 {
		t.Fatalf("module registries missing items: %d/%d", list.ModuleItems, hash.ModuleItems)
	}
}

func TestE9PoolSpeedsUpLargeGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	elapsed := func(fn func()) int64 {
		start := time.Now()
		fn()
		return time.Since(start).Nanoseconds()
	}
	rows := runE9([]int{0, 4}, 200, 20, 20000, elapsed)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Updates == 0 {
			t.Fatalf("workers=%d: no updates ran", r.Workers)
		}
	}
}

func TestF2TaxonomyTable(t *testing.T) {
	tab := f2Table()
	out := tab.String()
	for _, mech := range []string{"static", "on-demand", "periodic", "triggered"} {
		if !strings.Contains(out, mech) {
			t.Fatalf("taxonomy table missing %s:\n%s", mech, out)
		}
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
}
