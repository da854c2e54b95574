package main

import (
	"strings"
	"testing"

	"repro/internal/smoketest"
)

func TestSmoke(t *testing.T) {
	out := smoketest.Run(t, []string{"mdtop", "-until", "200"}, main)
	for _, want := range []string{"metadata inventory", "recorded series", "framework activity", "degraded ops"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWallSmoke runs the demo pipeline paced by the wall clock for two
// seconds. Each row is printed after the simulation was released to
// that second, so its values are exact: 99 arrivals in the first
// window, of which 50 pass the filter, then 100 and 50.
func TestWallSmoke(t *testing.T) {
	out := smoketest.Run(t, []string{"mdtop", "-wall", "2"}, main)
	for _, want := range []string{
		"    1000       0.0990        0.505       0.0495\n",
		"    2000       0.1000        0.500       0.0663\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing row %q:\n%s", want, out)
		}
	}
}
