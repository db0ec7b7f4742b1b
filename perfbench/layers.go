package main

import (
	"strings"

	"hybridkv/internal/cluster"
	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
)

// counters is a snapshot of every layer's public counters, summed over the
// fleet. Names starting with "peak." or "now." are gauges: delta keeps the
// later value instead of subtracting.
type counters map[string]float64

// snapshot reads the layers' existing public counters; no program code is
// instrumented for the benchmark.
func snapshot(cl *cluster.Cluster) counters {
	c := counters{}
	add := func(k string, v float64) { c[k] += v }
	peak := func(k string, v float64) {
		if v > c[k] {
			c[k] = v
		}
	}
	for _, cli := range cl.Clients {
		st := cli.Stats()
		add("core.issued", float64(st.Issued))
		add("core.completed", float64(st.Completed))
		add("core.sends", float64(st.Sends))
		add("core.retries", float64(st.Retries))
		add("core.bypass_hits", float64(st.BypassHits))
		add("core.bypass_fastpath", float64(st.BypassFastPath))
		add("core.bypass_fallbacks", float64(st.BypassFallbacks))
		add("core.bypass_reprobes", float64(st.BypassReprobes))
		add("core.bypass_reads", float64(st.BypassReads))
	}
	for _, s := range cl.Servers {
		add("server.requests", float64(s.Requests))
		add("server.shed", float64(s.ShedSets+s.ShedGets))
		peak("peak.server.queue", float64(s.QueuePeak))
		peak("peak.server.buffer", float64(s.BufferPeak))
		d := s.Device()
		add("verbs.server_posts", float64(d.SendsPosted+d.WritesPosted+d.ReadsPosted+d.AtomicsPosted))

		st := s.Store()
		ss := st.Stats()
		add("store.get_ops", float64(ss.GetOps))
		add("store.get_hits", float64(ss.GetHits))
		add("store.set_ops", float64(ss.SetOps))
		add("now.store.ram_items", float64(ss.RAMItems))
		add("now.store.ssd_items", float64(ss.SSDItems))
		for stage, key := range map[string]string{
			metrics.StageResponse:    "server.response",
			metrics.StageCacheLoad:   "store.lookup",
			metrics.StageCacheUpdate: "store.update",
			metrics.StageSlabAlloc:   "hybridslab.alloc",
		} {
			add(key+"_ns", float64(st.Prof.Total(stage)))
			add(key+"_n", float64(st.Prof.Ops(stage)))
		}

		m := st.Manager()
		add("hybridslab.gets", float64(m.Gets))
		add("hybridslab.ssd_loads", float64(m.SSDLoads))
		add("hybridslab.ssd_load_ns", float64(m.SSDLoadTime))
		add("hybridslab.flush_pages", float64(m.FlushPages))
		add("hybridslab.flush_writes", float64(m.FlushWrites))
		add("hybridslab.flush_ns", float64(m.FlushTime))
		add("hybridslab.alloc_stalls", float64(m.AllocStalls))
		add("hybridslab.drop_evictions", float64(m.DropEvictions))
	}
	for _, pc := range cl.Caches {
		add("pagecache.hits", float64(pc.Hits))
		add("pagecache.misses", float64(pc.Misses))
		add("pagecache.writeback_pages", float64(pc.WritebackPages))
		add("pagecache.throttle_stalls", float64(pc.ThrottleStalls))
	}
	for _, d := range cl.Devices {
		add("blockdev.reads", float64(d.Reads))
		add("blockdev.bytes_written", float64(d.BytesWrite))
		add("blockdev.busy_ns", float64(d.BusyTime))
		add("now.blockdev.channels", float64(d.Profile().Channels))
	}
	add("simnet.msgs", float64(cl.Fabric.MsgCount))
	add("simnet.bytes", float64(cl.Fabric.ByteCount))
	rc := cl.ReplicationCounters()
	add("replication.forwards", float64(rc.Get("forwards")))
	add("replication.repair_msgs", float64(rc.Get("repair-pushes")+rc.Get("repair-pulls")))
	add("replication.scrub_rounds", float64(rc.Get("scrub-rounds")))
	return c
}

// delta is after minus before, except for gauges, which keep their later
// value.
func delta(before, after counters) counters {
	d := counters{}
	for k, v := range after {
		if strings.HasPrefix(k, "peak.") || strings.HasPrefix(k, "now.") {
			d[k] = v
			continue
		}
		d[k] = v - before[k]
	}
	return d
}

// virt is every virtual-time result of one run. It is deterministic for a
// given workload, seed and rate, and compared whole by the determinism and
// traced-run checks.
type virt struct {
	Get, Set   latency
	Attempted  int
	Gets, Sets int
	SetBytes   int64 // value bytes the SETs carried
	Failures   []failure
	Corrupt    bool
	LateMax    sim.Time
	Backlog    []int64
	Aborted    bool
	Elapsed    sim.Time // from the first due time until the simulation drained
	Layers     counters
	Hash       uint64
}

// summarize turns a run's records and counter deltas into its virt.
func (r *run) summarize(d counters) virt {
	v := summarizeRecords(r.recs, r.window/10, r.spec.keys)
	v.SetBytes = int64(v.Sets) * int64(r.spec.valueSize)
	v.Backlog = r.backlog
	v.Aborted = r.aborted
	v.Elapsed = r.cl.Env.Now() - r.start
	v.Layers = d
	return v
}

// summarizeRecords checks every record with the oracle and takes each
// class's latency, from due time to completion, over the records due at or
// after warm. A failed operation counts as never completing.
func summarizeRecords(recs []record, warm sim.Time, keys int) virt {
	v := virt{Attempted: len(recs), Hash: fingerprint(recs)}
	v.Failures, v.Corrupt = check(recs, keys)
	failed := make([]bool, len(recs))
	for _, f := range v.Failures {
		failed[f.Idx] = true
	}
	var gets, sets []sim.Time
	for i, rec := range recs {
		if late := rec.issued - rec.due; late > v.LateMax {
			v.LateMax = late
		}
		if rec.set {
			v.Sets++
		} else {
			v.Gets++
		}
		if rec.due < warm {
			continue
		}
		lat := rec.done - rec.due
		if failed[i] {
			lat = never
		}
		if rec.set {
			sets = append(sets, lat)
		} else {
			gets = append(gets, lat)
		}
	}
	v.Get, v.Set = latencyOf(gets), latencyOf(sets)
	return v
}
