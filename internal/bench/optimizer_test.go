package bench

import (
	"strings"
	"testing"
)

func TestE16ReorderingPaysOff(t *testing.T) {
	r := runE16(3000)
	if r.Reorders != 1 {
		t.Fatalf("reorders = %d, want 1", r.Reorders)
	}
	if r.CPUAfter >= r.CPUBefore/3 {
		t.Fatalf("CPU %v -> %v: want at least 3x improvement", r.CPUBefore, r.CPUAfter)
	}
	if !r.ResultsMatch {
		t.Fatal("optimized plan changed the query result")
	}
	if len(r.RanksBefore) != 2 || r.RanksBefore[0] <= r.RanksBefore[1] {
		t.Fatalf("ranks = %v: slot 0 should have ranked worse", r.RanksBefore)
	}
	if !strings.Contains(r.table().String(), "improvement") {
		t.Fatal("table missing content")
	}
}

func TestE17AdvisorFlips(t *testing.T) {
	rows := runE17()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(rows[0].Plan, "(A ⋈ B)") {
		t.Fatalf("initial plan = %s, want A⋈B first", rows[0].Plan)
	}
	if !strings.Contains(rows[1].Plan, "(A ⋈ C)") {
		t.Fatalf("post-spike plan = %s, want A⋈C first", rows[1].Plan)
	}
	if rows[0].EstCPU >= rows[0].Alternatives[0].EstCPU {
		t.Fatal("recommended plan not cheapest")
	}
}

func TestE18QoSBeatsRoundRobinOnPriorityLatency(t *testing.T) {
	rows := runE18(3000)
	var rr, qos e18Row
	for _, r := range rows {
		if r.Strategy == "qos" {
			qos = r
		} else {
			rr = r
		}
	}
	// Under QoS the important query is served nearly immediately.
	if qos.HiLatency > 5 {
		t.Fatalf("qos hi-priority latency = %v, want near-immediate", qos.HiLatency)
	}
	// Round-robin treats both queries alike: the high-priority query
	// sees a much larger latency than under QoS.
	if rr.HiLatency <= qos.HiLatency*5 {
		t.Fatalf("roundrobin hi latency %v vs qos %v: want clear separation", rr.HiLatency, qos.HiLatency)
	}
	// The QoS low-priority query pays for it.
	if qos.LoLatency <= qos.HiLatency {
		t.Fatal("qos low-priority query not delayed")
	}
}
