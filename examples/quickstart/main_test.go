package main

import (
	"strings"
	"testing"

	"repro/internal/smoketest"
)

func TestSmoke(t *testing.T) {
	out := smoketest.Run(t, []string{"quickstart"}, main)
	for _, want := range []string{"alerts delivered", "hot-filter selectivity", "metadata inventory",
		"8-reading mean (F):      67.4 (both sites)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
