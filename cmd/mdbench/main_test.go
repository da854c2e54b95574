package main

import (
	"strings"
	"testing"

	"repro/internal/smoketest"
)

func TestSmoke(t *testing.T) {
	out := smoketest.Run(t, []string{"mdbench", "-list"}, main)
	for _, id := range []string{"e1", "e18", "c1", "f2"} {
		if !strings.Contains(out, id+" ") && !strings.Contains(out, id+"  ") {
			t.Errorf("experiment list missing %q:\n%s", id, out)
		}
	}
	if !strings.Contains(out, "Figure 4: concurrent periodic access") {
		t.Errorf("experiment list missing e1 description:\n%s", out)
	}
}
