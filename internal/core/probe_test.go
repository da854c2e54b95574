package core

import (
	"sync"
	"testing"
)

// TestCounterGating counts only while active, and Take reads and resets.
func TestCounterGating(t *testing.T) {
	for _, tc := range []struct {
		name string
		incs int
		adds []int64
		want int64
	}{
		{"inc and add", 1, []int64{2}, 3},
		{"adds only", 0, []int64{5, 2}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c Counter
			record := func() {
				for range tc.incs {
					c.Inc()
				}
				for _, d := range tc.adds {
					c.Add(d)
				}
			}
			record()
			if c.Read() != 0 || c.Take() != 0 {
				t.Fatal("inactive counter counted")
			}
			c.Activate()
			record()
			if got := c.Read(); got != tc.want {
				t.Fatalf("Read = %d, want %d", got, tc.want)
			}
			if got := c.Take(); got != tc.want || c.Read() != 0 || c.Take() != 0 {
				t.Fatalf("Take = %d then did not reset", got)
			}
			c.Deactivate()
			if c.Active() {
				t.Fatal("still active")
			}
		})
	}
}

func TestCounterNestedActivation(t *testing.T) {
	var c Counter
	c.Activate()
	c.Activate()
	c.Inc()
	c.Deactivate()
	if !c.Active() {
		t.Fatal("deactivated too early")
	}
	c.Inc()
	if c.Read() != 2 {
		t.Fatalf("Read = %d, want 2", c.Read())
	}
	c.Deactivate()
	if c.Read() != 0 {
		t.Fatal("count not reset when last activation released")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	c.Activate()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Read() != 8000 {
		t.Fatalf("Read = %d, want 8000", c.Read())
	}
}

func TestProbesCombinator(t *testing.T) {
	var a, b Counter
	p := Probes{&a, &b}
	p.Activate()
	if !a.Active() || !b.Active() {
		t.Fatal("combined activation missed a probe")
	}
	p.Deactivate()
	if a.Active() || b.Active() {
		t.Fatal("combined deactivation missed a probe")
	}
}
