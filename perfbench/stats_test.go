package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

func ascending(n int) []sim.Time {
	s := make([]sim.Time, n)
	for i := range s {
		s[i] = sim.Time(i + 1)
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want sim.Time
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly 10
		{999, 0.99, 990, false}, // 9 beyond
		{1009, 0.99, 999, true},
		{19, 0.50, 10, false}, // 9 beyond the median
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(ascending(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d q=%g: got %v,%v want %v,%v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestGoodputClimbsThenBisects(t *testing.T) {
	ladder := []float64{50, 100, 200, 400}
	var asked []float64
	// Rates up to 130 pass, and 400 too: a passing rung above a failing
	// one does not count.
	got := goodput(ladder, 1.0/32, func(k float64) bool {
		asked = append(asked, k)
		return k <= 130 || k == 400
	})
	want := []float64{50, 100, 200, 150, 125, 137.5, 131.25, 128.125}
	if !reflect.DeepEqual(asked, want) {
		t.Fatalf("asked %v, want %v: climb to the first failure, then bisect", asked, want)
	}
	if got != 128.125 {
		t.Fatalf("goodput = %g, want 128.125, the last passing rate", got)
	}
	if got := goodput(ladder, 1.0/32, func(float64) bool { return false }); got != 0 {
		t.Fatalf("goodput with every rung failing = %g, want 0", got)
	}
	if got := goodput(ladder, 1.0/32, func(float64) bool { return true }); got != 400 {
		t.Fatalf("goodput with every rung passing = %g, want the top rung", got)
	}
}

func TestBacklogGrows(t *testing.T) {
	flat := []int64{40, 55, 38, 61, 47, 52, 44, 58}
	if backlogGrows(flat, 10) {
		t.Error("a backlog moving inside a band was called growing")
	}
	linear := make([]int64, 64)
	for i := range linear {
		linear[i] = int64(10 * i)
	}
	if !backlogGrows(linear, 100) {
		t.Error("a backlog rising steadily from zero was not called growing")
	}
	if backlogGrows(linear, 1000) {
		t.Error("growth that stays under the slack was called growing")
	}
}

func TestRungPasses(t *testing.T) {
	ok := latency{N: 5000, P50: 5, P99: 90, P50OK: true, P99OK: true}
	base := virt{Get: ok, Set: ok, Backlog: []int64{3, 4, 2, 5}}
	if !rungPasses(&base, 100, 10) {
		t.Fatal("a rung within its limit failed")
	}
	over := base
	over.Set.P99 = never // failures count as over the limit
	unmeasured := base
	unmeasured.Get.P99OK = false
	aborted := base
	aborted.Aborted = true
	for name, v := range map[string]virt{"over": over, "unmeasured": unmeasured, "aborted": aborted} {
		if rungPasses(&v, 100, 10) {
			t.Errorf("%s rung passed", name)
		}
	}
}

func TestLatencyFromDueTimeAndLateness(t *testing.T) {
	const us = sim.Microsecond
	recs := []record{
		// Warm-up: counted for lateness and by the oracle, not latency.
		{due: 0, issued: 0, done: 50 * us, key: 0, seq: 1, set: true, status: protocol.StatusStored},
		// Issued 7 µs late: its latency still runs from the due time.
		{due: 100 * us, issued: 107 * us, done: 110 * us, key: 0, seq: 1, status: protocol.StatusOK},
		{due: 200 * us, issued: 201 * us, done: 230 * us, key: 1, seq: 0, status: protocol.StatusOK},
	}
	v := summarizeRecords(recs, 10*us, 2)
	if v.LateMax != 7*us {
		t.Errorf("lateMax = %v, want 7µs", v.LateMax)
	}
	if v.Get.N != 2 || v.Set.N != 0 {
		t.Fatalf("samples get=%d set=%d, want 2 and 0 (warm-up excluded)", v.Get.N, v.Set.N)
	}
	if got, _ := percentile([]sim.Time{10 * us, 30 * us}, 0.5); v.Get.P50 != got {
		t.Errorf("get p50 = %v, want %v measured from due time", v.Get.P50, got)
	}
	if v.Get.Mean != float64(20*us) {
		t.Errorf("get mean = %v ns, want 20µs", v.Get.Mean)
	}
	if v.Attempted != 3 || v.Gets != 2 || v.Sets != 1 || len(v.Failures) != 0 {
		t.Errorf("counts %+v", v)
	}
}

func TestFailedOperationMissesEveryLimit(t *testing.T) {
	recs := []record{{due: 10, issued: 10, done: 20, key: 0, seq: seqMiss, status: protocol.StatusNotFound}}
	v := summarizeRecords(recs, 0, 1)
	if len(v.Failures) != 1 || v.Get.P50 != never || v.Get.Mean != 0 {
		t.Fatalf("a miss on a preloaded key: failures %v, p50 %v, mean %g", v.Failures, v.Get.P50, v.Get.Mean)
	}
}

func TestOracle(t *testing.T) {
	set := func(key, seq int32, issued, done sim.Time) record {
		return record{due: issued, issued: issued, done: done, key: key, seq: seq, set: true, status: protocol.StatusStored}
	}
	get := func(key, seq int32, issued, done sim.Time) record {
		st := protocol.StatusOK
		if seq == seqMiss {
			st = protocol.StatusNotFound
		}
		return record{due: issued, issued: issued, done: done, key: key, seq: seq, status: st}
	}
	for _, c := range []struct {
		name    string
		recs    []record
		fail    string
		corrupt bool
	}{
		{"preload", []record{get(0, 0, 5, 9)}, "", false},
		{"latest", []record{set(0, 1, 0, 10), get(0, 1, 20, 30)}, "", false},
		{"concurrent SETs in either order", []record{set(0, 1, 0, 10), set(0, 2, 5, 15), get(0, 1, 20, 30)}, "", false},
		{"SET in flight may be seen", []record{set(0, 1, 0, 50), get(0, 1, 20, 30)}, "", false},
		{"SET in flight may be missed", []record{set(0, 1, 0, 50), get(0, 0, 20, 30)}, "", false},
		{"stale", []record{set(0, 1, 0, 10), set(0, 2, 12, 15), get(0, 1, 20, 30)}, "stale", false},
		{"preload after an acknowledged SET", []record{set(0, 1, 0, 10), get(0, 0, 20, 30)}, "stale", false},
		{"miss", []record{get(0, seqMiss, 0, 5)}, "NOT_FOUND", false},
		{"empty hit", []record{get(0, seqEmpty, 0, 5)}, "no value", false},
		{"foreign", []record{get(0, seqForeign, 0, 5)}, "not written", true},
		{"sequence never issued", []record{get(0, 3, 0, 5)}, "not written", true},
		{"sequence from the future", []record{set(0, 1, 40, 50), get(0, 1, 0, 5)}, "after the GET", true},
		{"failed SET", []record{{done: 5, set: true, seq: 1, status: protocol.StatusBusy}}, "BUSY", false},
		{"never completed", []record{{done: -1, seq: seqMiss}}, "never", false},
	} {
		fails, corrupt := check(c.recs, 1)
		switch {
		case c.fail == "" && len(fails) != 0:
			t.Errorf("%s: unexpected failures %v", c.name, fails)
		case c.fail != "" && (len(fails) != 1 || !strings.Contains(fails[0].Reason, c.fail)):
			t.Errorf("%s: failures %v, want one containing %q", c.name, fails, c.fail)
		case corrupt != c.corrupt:
			t.Errorf("%s: corrupt = %v, want %v", c.name, corrupt, c.corrupt)
		}
	}
}

func TestRatioWithZeroDenominator(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Fatalf("ratio(5, 0) = %g", got)
	}
	// A run without bypass or replication: every counter is zero.
	rep := &report{metrics: map[string]metric{}}
	res := &result{Virt: virt{Attempted: 1000, Gets: 500, Sets: 500, Elapsed: sim.Second, Layers: counters{}}}
	layerMetrics(rep, res, res)
	for i, name := range rep.names {
		m := rep.metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %g", name, m.Value)
		}
		if name == "core.bypass_reads_per_hit" && (m.Value != 0 || !strings.Contains(rep.notes[i], "no bypass hits")) {
			t.Errorf("%s = %g (%s), want 0 with the reason", name, m.Value, rep.notes[i])
		}
	}
}

func TestFingerprintSeesEveryField(t *testing.T) {
	base := []record{{due: 1, issued: 2, done: 3, key: 4, seq: 5, status: protocol.StatusOK}}
	h := fingerprint(base)
	for i, mut := range []func(*record){
		func(r *record) { r.due++ },
		func(r *record) { r.issued++ },
		func(r *record) { r.done++ },
		func(r *record) { r.key++ },
		func(r *record) { r.seq++ },
		func(r *record) { r.set = true },
		func(r *record) { r.status = protocol.StatusNotFound },
	} {
		r := base[0]
		mut(&r)
		if fingerprint([]record{r}) == h {
			t.Errorf("mutation %d left the fingerprint unchanged", i)
		}
	}
}
