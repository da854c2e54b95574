package bench

import "testing"

// TestExperimentIndex runs every indexed experiment at print scale:
// each figure mdbench prints must still execute and render a table.
func TestExperimentIndex(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments(func(fn func()) int64 { fn(); return 0 }) {
		if e.ID == "" || seen[e.ID] {
			t.Fatalf("experiment id %q is empty or repeated", e.ID)
		}
		seen[e.ID] = true
		if e.Desc == "" {
			t.Errorf("%s: empty description", e.ID)
		}
		tab := e.Run()
		if tab == nil || tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Errorf("%s: table without a title, header or rows: %+v", e.ID, tab)
		}
	}
}

// TestC1ContentionRows checks the contention sweep under both updaters:
// one row per goroutine count, every read and churn cycle completed,
// and both phases timed.
func TestC1ContentionRows(t *testing.T) {
	const ops = 200
	gs := []int{1, 2, 4}
	for _, workers := range []int{0, 2} {
		timed := 0
		rows := runC1(gs, 4, ops, workers, func(fn func()) int64 { timed++; fn(); return 1 })
		if len(rows) != len(gs) || timed != 2*len(gs) {
			t.Fatalf("workers=%d: %d rows and %d timed phases for %d goroutine counts", workers, len(rows), timed, len(gs))
		}
		for i, r := range rows {
			if r.Goroutines != gs[i] || r.Workers != workers {
				t.Fatalf("row %d = %+v, want goroutines=%d workers=%d", i, r, gs[i], workers)
			}
			if r.ReadOps != int64(gs[i]*ops) || r.ChurnOps != int64(gs[i]*(ops/10)) {
				t.Fatalf("workers=%d goroutines=%d: %d reads, %d churn cycles; want %d, %d",
					workers, gs[i], r.ReadOps, r.ChurnOps, gs[i]*ops, gs[i]*(ops/10))
			}
		}
	}
}
