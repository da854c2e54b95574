package bench

import (
	"math"
	"strings"
	"testing"
)

func TestE1NaiveRatesWrongPeriodicExact(t *testing.T) {
	r := runE1(8)
	if len(r.User1Naive) != 8 || len(r.User2Naive) != 8 {
		t.Fatalf("access counts: %d/%d", len(r.User1Naive), len(r.User2Naive))
	}
	// Steady state (skip the first access of each user): the figure's
	// effect — both users wrong, measurements complementary.
	for i := 1; i < 8; i++ {
		if r.User1Naive[i] == r.TrueRate {
			t.Fatalf("user1 naive access %d = true rate; interference expected", i)
		}
		if r.User2Naive[i] == r.TrueRate {
			t.Fatalf("user2 naive access %d = true rate; interference expected", i)
		}
		// The two wrong rates sum to the true rate: elements are split
		// between the readers, none lost.
		if sum := r.User1Naive[i] + r.User2Naive[i]; math.Abs(sum-r.TrueRate) > 1e-9 {
			t.Fatalf("naive rates do not sum to 0.1 at access %d: %v", i, sum)
		}
	}
	// The shared periodic handler is exact for both users at every
	// access from the first full window on.
	for i := 1; i < 8; i++ {
		if r.User1Periodic[i] != 0.1 || r.User2Periodic[i] != 0.1 {
			t.Fatalf("periodic values at access %d: %v / %v, want 0.1",
				i, r.User1Periodic[i], r.User2Periodic[i])
		}
	}
}

func TestE1SteadyStateMatchesFigure(t *testing.T) {
	r := runE1(8)
	// With accesses at 50k (user1) and 50k+20 (user2) over arrivals
	// every 10 units: user1's inter-access window catches 3 elements
	// (0.06), user2's catches 2 (0.04).
	for i := 2; i < 8; i++ {
		if math.Abs(r.User1Naive[i]-0.06) > 1e-9 {
			t.Fatalf("user1 steady naive = %v, want 0.06", r.User1Naive[i])
		}
		if math.Abs(r.User2Naive[i]-0.04) > 1e-9 {
			t.Fatalf("user2 steady naive = %v, want 0.04", r.User2Naive[i])
		}
	}
}

func TestE1Table(t *testing.T) {
	tab := runE1(4).table()
	out := tab.String()
	if !strings.Contains(out, "Figure 4") || len(tab.Rows) != 4 {
		t.Fatalf("table wrong:\n%s", out)
	}
}

func TestE2OnDemandBiasedTriggeredCorrect(t *testing.T) {
	// Bursts: 20 units at rate 1, then 80 units silence; mean 0.2.
	r := runE2(20, 80, 10, 50)
	if r.TrueMean != 0.2 {
		t.Fatalf("true mean = %v, want 0.2", r.TrueMean)
	}
	// The on-demand average sampled at peaks must be far too high.
	if r.OnDemandAvg < 0.8 {
		t.Fatalf("on-demand avg = %v, want ~peak 1.0 (biased)", r.OnDemandAvg)
	}
	// The triggered average must be close to the true mean.
	if math.Abs(r.TriggeredAvg-r.TrueMean) > 0.05 {
		t.Fatalf("triggered avg = %v, want ~%v", r.TriggeredAvg, r.TrueMean)
	}
}

func TestE2Table(t *testing.T) {
	out := runE2(20, 80, 10, 10).table().String()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "triggered average") {
		t.Fatalf("table wrong:\n%s", out)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Header: []string{"a", "bb"}}
	tab.Add(1, 2.5)
	tab.Add("xx", "y")
	out := tab.String()
	for _, want := range []string{"=== T ===", "a", "bb", "xx", "2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
