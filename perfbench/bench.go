package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"hybridkv/internal/sim"
)

// measure runs one measurement in this process.
func measure(s *spec, seed int64, kops float64, window sim.Time, trace bool) (*result, error) {
	r, res := newRun(s, seed, kops, window, trace)
	if err := r.execute(res); err != nil {
		return nil, err
	}
	return res, nil
}

// measureIsolated runs one measurement in a child process of this binary
// and waits for it. The simulator has no teardown: a finished run's parked
// processes keep its cluster reachable, and in one process each run made
// the next one slower. A fresh process per run keeps every wall-clock
// figure free of the runs before it.
func measureIsolated(s *spec, seed int64, kops float64, window sim.Time, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", s.name, "-seed", strconv.FormatInt(seed, 10),
		"-kops", strconv.FormatFloat(kops, 'g', -1, 64), "-window", window.String(), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s at %g kops: %w", s.name, kops, err)
	}
	var res result
	if err := gob.NewDecoder(bytes.NewReader(out)).Decode(&res); err != nil {
		return nil, fmt.Errorf("%s at %g kops: reading the child's result: %w", s.name, kops, err)
	}
	return &res, nil
}

// child is a -child invocation: one measurement, written to standard
// output in gob for the parent.
func child(s *spec, seed int64, kops float64, window sim.Time, trace bool) error {
	res, err := measure(s, seed, kops, window, trace)
	if err != nil {
		return err
	}
	return gob.NewEncoder(os.Stdout).Encode(res)
}

// untraced is a -trace 0 invocation: the end-to-end metrics. The nominal
// run repeats with the same seed until the wall-clock budget is spent (at
// least twice); every repetition must reproduce the first one's virtual
// time exactly, and the wall-clock figures are taken over all of them. The
// ladder and its bisection then find goodput.
func untraced(s *spec, seed int64, budget time.Duration) (*report, error) {
	rep := newReport(s, seed)
	var reps, rungs []*result
	var setups []float64
	t0 := time.Now()
	for len(reps) < 2 || time.Since(t0) < budget {
		res, err := measureIsolated(s, seed, s.nominalKops, s.window, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, res)
		setups = append(setups, res.BuildS+res.PreloadS)
	}
	v := &reps[0].Virt
	for i := 1; i < len(reps); i++ {
		if err := sameVirt(v, &reps[i].Virt); err != nil {
			rep.fail("same seed, repetition %d: %v", i+1, err)
		}
	}
	if !v.Get.P99OK || !v.Set.P99OK {
		return nil, fmt.Errorf("%s: too few samples for a p99 (GET %d, SET %d)", s.name, v.Get.N, v.Set.N)
	}

	var ladderErr error
	gp := goodput(s.ladderKops, resolution, func(kops float64) bool {
		res, err := measureIsolated(s, seed, kops, s.rungWindow(kops), false)
		if err != nil {
			ladderErr = err
			return false
		}
		rungs = append(rungs, res)
		setups = append(setups, res.BuildS+res.PreloadS)
		v := &res.Virt
		checkRun(rep, v, fmt.Sprintf("rate %g kops", kops))
		pass := rungPasses(v, s.limit, slackFor(kops, s.limit))
		rep.lines = append(rep.lines, fmt.Sprintf("rate %8.6g kops: GET p99 %v SET p99 %v, backlog %v, failed %d, pass %v",
			kops, v.Get.P99, v.Set.P99, v.Backlog[len(v.Backlog)-1], len(v.Failures), pass))
		return pass
	})
	if ladderErr != nil {
		return nil, ladderErr
	}
	checkRun(rep, v, "nominal")

	// The host's speed wanders by a tenth or more within seconds, so
	// host_kops is every repetition's operations over their summed wall
	// time rather than one repetition's rate; and by a fifth or more over
	// minutes, so both wall-clock figures are scaled to the reference host
	// by the calibrations of every run in the invocation.
	var ops, wall float64
	var kops, heap []float64
	for _, r := range reps {
		ops += float64(r.Virt.Attempted)
		wall += r.PhaseS
		kops = append(kops, float64(r.Virt.Attempted)/r.PhaseS/1e3)
		heap = append(heap, r.HeapMB)
	}
	speed := hostSpeedOf(append(rungs, reps...))
	rep.attempted, rep.failures = v.Attempted, v.Failures
	rep.lines = append(rep.lines, latencyLine("GET", v.Get), latencyLine("SET", v.Set))
	rep.add("get_mean_us", us(v.Get.Mean), "us", fmt.Sprintf("n=%d", v.Get.N))
	rep.add("get_p99_us", us(float64(v.Get.P99)), "us", fmt.Sprintf("n=%d", v.Get.N))
	rep.add("set_mean_us", us(v.Set.Mean), "us", fmt.Sprintf("n=%d", v.Set.N))
	rep.add("set_p99_us", us(float64(v.Set.P99)), "us", fmt.Sprintf("n=%d", v.Set.N))
	rep.add("goodput_kops", gp, "kops", fmt.Sprintf("ladder %v kops bisected to 1/%g, p99 limit %v", s.ladderKops, 1/resolution, s.limit))
	failPct := 100 * ratio(float64(len(v.Failures)), float64(v.Attempted))
	rep.add("success_pct", 100-failPct, "%",
		fmt.Sprintf("fail_pct=%.4f (%d of %d)", failPct, len(v.Failures), v.Attempted))
	ref := fmt.Sprintf("the host ran at %.3g of the reference", speed/refSpeed)
	rep.add("host_kops", ops/atRef(wall, speed)/1e3, "kops", fmt.Sprintf("at the reference host, over %d repetitions of %.4g per wall second; %s",
		len(reps), kops, ref))
	rep.add("setup_s", atRef(median(setups), speed), "s", fmt.Sprintf("at the reference host, median of %d set-ups of %.4g wall seconds; %s",
		len(setups), median(setups), ref))
	rep.add("live_heap_mb", median(heap), "MB", "after a forced GC, median over the repetitions")
	return rep, nil
}

// resolution is how close, as a share of the rate, the goodput bisection
// brackets the knee: well inside goodput_kops's bound, so one step of it
// cannot hide a change the bound should catch.
const resolution = 1.0 / 32

// us converts virtual nanoseconds to microseconds.
func us(ns float64) float64 { return ns / float64(sim.Microsecond) }

// latencyLine prints one class's percentiles and mean with their sample
// count.
func latencyLine(op string, l latency) string {
	return fmt.Sprintf("%s n=%d: p50 %.4f us, p99 %.4f us, mean %.4f us", op, l.N, us(float64(l.P50)), us(float64(l.P99)), us(l.Mean))
}

// checkRun records the benchmark-level correctness conditions of one run:
// no value that was never written came back, and eviction never discarded
// an item, which is what lets the oracle treat any miss as a failure.
func checkRun(rep *report, v *virt, what string) {
	if v.Corrupt {
		rep.fail("%s: a GET returned a value never written for its key", what)
	}
	if d := v.Layers["hybridslab.drop_evictions"]; d != 0 {
		rep.fail("%s: %g items dropped by eviction", what, d)
	}
}

// traced is a -trace 1 invocation: the per-layer metrics. Untraced and
// traced nominal runs alternate until the budget is spent (at least one
// pair); all must agree in virtual time, the first pair supplies the layer
// figures, and the pairs give the tracing overhead on the phase's wall
// time, which is host_kops's denominator.
func traced(s *spec, seed int64, budget time.Duration) (*report, error) {
	rep := newReport(s, seed)
	var runs []*result // untraced, traced, untraced, ...
	var builds, preloads, overhead []float64
	t0 := time.Now()
	for len(runs) < 2 || time.Since(t0) < budget {
		for _, tr := range []bool{false, true} {
			res, err := measureIsolated(s, seed, s.nominalKops, s.window, tr)
			if err != nil {
				return nil, err
			}
			builds = append(builds, res.BuildS)
			preloads = append(preloads, res.PreloadS)
			runs = append(runs, res)
		}
		p, t := runs[len(runs)-2], runs[len(runs)-1]
		overhead = append(overhead, 100*(t.PhaseS-p.PhaseS)/p.PhaseS)
	}
	v := &runs[0].Virt
	for i, res := range runs[1:] {
		if err := sameVirt(v, &res.Virt); err != nil {
			rep.fail("run %d against the first untraced run: %v", i+2, err)
		}
	}
	checkRun(rep, v, "nominal")
	rep.attempted, rep.failures = v.Attempted, v.Failures
	layerMetrics(rep, runs[0], runs[1])
	rep.add("get_p50_us", us(float64(v.Get.P50)), "us", fmt.Sprintf("n=%d", v.Get.N))
	rep.add("set_p50_us", us(float64(v.Set.P50)), "us", fmt.Sprintf("n=%d", v.Set.N))
	rep.add("host.trace_overhead_pct", median(overhead), "%",
		fmt.Sprintf("traced against untraced phase wall time, median of %d pairs", len(overhead)))
	speed := hostSpeedOf(runs)
	rep.add("cluster.build_s", atRef(median(builds), speed), "s", fmt.Sprintf("at the reference host, median of %d", len(builds)))
	rep.add("cluster.preload_s", atRef(median(preloads), speed), "s", fmt.Sprintf("at the reference host, median of %d, with SettleIO", len(preloads)))
	return rep, nil
}

// layerMetrics derives the per-layer figures from the counter deltas and
// allocation counts of an untraced run, and the issue spans and CPU
// profile of its traced twin.
func layerMetrics(rep *report, res, traced *result) {
	v := &res.Virt
	h := traced.Host
	d := v.Layers
	ops := float64(v.Attempted)

	rep.add("sim.gc_cpu_pct", res.GCPct, "%", "GC share of busy CPU during the phase")
	note := fmt.Sprintf("of %v profiled CPU time", h.CPU)
	rep.add("host.handoff_pct", h.Handoff, "%", note)
	rep.add("host.heap_pct", h.Heap, "%", note)
	for _, p := range modelPackages {
		rep.add("host.pkg."+p+"_pct", h.Self[p], "%", "self time, "+note)
	}
	var backlog int64
	for _, b := range v.Backlog {
		backlog = max(backlog, b)
	}
	rep.add("load.late_max_us", float64(v.LateMax)/1e3, "us", "largest issue time minus due time")
	rep.add("load.backlog", float64(backlog), "ops", "peak due-but-not-completed count")
	rep.add("server.queue_peak", d["peak.server.queue"], "count", "over the server's life")
	rep.add("server.buffer_peak_kb", d["peak.server.buffer"]/1024, "KB", "over the server's life")
	rep.add("hybridslab.drop_evictions", d["hybridslab.drop_evictions"], "count", "must be 0")

	hits, fallbacks := d["core.bypass_hits"], d["core.bypass_fallbacks"]
	const pct, perK, perUS = 100, 1000, 1e-3
	for _, m := range []struct {
		name, unit string
		num, den   float64
		scale      float64
		of         string // what den counts
	}{
		{"sim.allocs_per_op", "1/op", float64(res.Allocs), ops, 1, "operations"},
		{"sim.alloc_bytes_per_op", "B/op", float64(res.Bytes), ops, 1, "operations"},
		{"core.issue_us", "us", traced.IssueNS, float64(traced.IssueSpans), perUS, "issue spans"},
		{"core.sends_per_op", "1/op", d["core.sends"], ops, 1, "operations"},
		{"core.retries_per_kop", "1/kop", d["core.retries"], ops, perK, "operations"},
		{"core.bypass_hit_pct", "%", hits, float64(v.Gets), pct, "GETs"},
		{"core.bypass_reads_per_hit", "1/hit", d["core.bypass_reads"], hits, 1, "bypass hits"},
		{"core.bypass_fastpath_pct", "%", d["core.bypass_fastpath"], hits, pct, "bypass hits"},
		{"core.bypass_fallback_pct", "%", fallbacks, hits + fallbacks, pct, "bypass attempts"},
		{"core.bypass_reprobes_per_kop", "1/kop", d["core.bypass_reprobes"], ops, perK, "operations"},
		{"simnet.msgs_per_op", "1/op", d["simnet.msgs"], ops, 1, "operations"},
		{"simnet.kb_per_op", "KB/op", d["simnet.bytes"] / 1024, ops, 1, "operations"},
		{"verbs.server_posts_per_op", "1/op", d["verbs.server_posts"], ops, 1, "operations"},
		{"server.rpc_per_op", "1/op", d["server.requests"], ops, 1, "operations"},
		{"server.response_us", "us", d["server.response_ns"], d["server.response_n"], perUS, "server responses"},
		{"server.shed_pct", "%", d["server.shed"], d["server.requests"], pct, "server requests"},
		{"store.lookup_us", "us", d["store.lookup_ns"], d["store.lookup_n"], perUS, "store lookups"},
		{"store.update_us", "us", d["store.update_ns"], d["store.update_n"], perUS, "store updates"},
		{"store.hit_pct", "%", d["store.get_hits"], d["store.get_ops"], pct, "store GETs"},
		{"hybridslab.alloc_us", "us", d["hybridslab.alloc_ns"], d["hybridslab.alloc_n"], perUS, "slab allocations"},
		{"hybridslab.alloc_stalls_per_kop", "1/kop", d["hybridslab.alloc_stalls"], ops, perK, "operations"},
		{"hybridslab.flush_us", "us", d["hybridslab.flush_ns"], d["hybridslab.flush_writes"], perUS, "flush writes"},
		{"hybridslab.flush_pages_per_kop", "1/kop", d["hybridslab.flush_pages"], ops, perK, "operations"},
		{"hybridslab.ssd_load_pct", "%", d["hybridslab.ssd_loads"], d["hybridslab.gets"], pct, "slab loads"},
		{"hybridslab.ssd_load_us", "us", d["hybridslab.ssd_load_ns"], d["hybridslab.ssd_loads"], perUS, "SSD loads"},
		{"hybridslab.ram_item_pct", "%", d["now.store.ram_items"], d["now.store.ram_items"] + d["now.store.ssd_items"], pct, "items"},
		{"pagecache.hit_pct", "%", d["pagecache.hits"], d["pagecache.hits"] + d["pagecache.misses"], pct, "page-cache lookups"},
		{"pagecache.writeback_pages_per_kop", "1/kop", d["pagecache.writeback_pages"], ops, perK, "operations"},
		{"pagecache.throttle_stalls_per_kop", "1/kop", d["pagecache.throttle_stalls"], ops, perK, "operations"},
		{"blockdev.busy_pct", "%", d["blockdev.busy_ns"], float64(v.Elapsed) * d["now.blockdev.channels"], pct, "channel time"},
		{"blockdev.reads_per_kop", "1/kop", d["blockdev.reads"], ops, perK, "operations"},
		{"blockdev.write_amp", "ratio", d["blockdev.bytes_written"], float64(v.SetBytes), 1, "value bytes SET"},
		{"replication.forwards_per_set", "1/set", d["replication.forwards"], float64(v.Sets), 1, "SETs"},
		{"replication.repair_msgs_per_kop", "1/kop", d["replication.repair_msgs"], ops, perK, "operations"},
		{"replication.scrub_rounds_per_s", "1/s", d["replication.scrub_rounds"], v.Elapsed.Seconds(), 1, "virtual seconds"},
	} {
		note := "per " + m.of
		if m.den == 0 {
			note = "no " + m.of + " in this run, so 0"
		}
		rep.add(m.name, m.scale*ratio(m.num, m.den), m.unit, note)
	}
}
