package core

import (
	"sync"
	"testing"
)

func TestCounterGating(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	if c.Read() != 0 {
		t.Fatal("inactive counter counted")
	}
	c.Activate()
	c.Inc()
	c.Add(2)
	if c.Read() != 3 {
		t.Fatalf("Read = %d, want 3", c.Read())
	}
	if c.Take() != 3 || c.Read() != 0 {
		t.Fatal("Take did not reset")
	}
	c.Deactivate()
	if c.Active() {
		t.Fatal("still active")
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

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(5)
	if g.Take() != 0 {
		t.Fatal("inactive gauge stored")
	}
	g.Activate()
	g.Add(5)
	g.Add(2)
	if got := g.Take(); got != 7 {
		t.Fatalf("Take = %d, want 7", got)
	}
	if g.Take() != 0 {
		t.Fatal("Take did not reset")
	}
	g.Deactivate()
	if g.Active() {
		t.Fatal("still active")
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
