package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"time"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// tag is the value every measured SET carries: the key index and the
// per-key sequence the generator assigned at issue. Preloaded values are the
// "v<index>" strings cluster.Preload writes, read as sequence 0.
type tag struct{ key, seq int32 }

// record is one operation of a run, kept compact so the benchmark's own heap
// stays small beside the simulator's.
type record struct {
	due, issued, done sim.Time // done is Req.CompletedAt, or -1 if never completed
	key               int32
	// seq is the sequence a SET wrote, or the one a GET hit returned;
	// seqMiss marks a GET that found nothing, seqEmpty a hit that carried
	// no value, seqForeign one that returned a value no SET of this
	// benchmark wrote for its key.
	seq    int32
	set    bool
	status protocol.Status
}

const (
	seqMiss    = -1
	seqEmpty   = -2
	seqForeign = -3
)

// span is the virtual-time interval of one Client.Issue call, which a
// traced run stamps for every operation.
type span struct{ start, end sim.Time }

// inflight is an issued request not yet retired into its record.
type inflight struct {
	req *core.Req
	rec int32
}

// backlogCap aborts a rung whose backlog passes it: such a rung has
// already failed, and running it out would only cost host time.
const backlogCap = 20000

// samplesPerWindow is how often the backlog is sampled over an issue window.
const samplesPerWindow = 64

// run is one open-loop measurement: a fresh deployment, preloaded, then
// driven at one offered rate for window of virtual time.
type run struct {
	spec   *spec
	window sim.Time
	trace  bool

	cl       *cluster.Cluster
	start    sim.Time
	arrivals [clients][]sim.Time // due times, relative to start
	gens     [clients]*workload.Generator
	pending  [clients][]inflight
	nextSeq  []int32
	recs     []record
	issues   []span // traced runs only
	aborted  bool
	backlog  []int64 // sampled due-but-not-completed counts
}

// result is what one measured run yields, in a form a child process can
// send its parent. Virt holds every virtual-time figure and is identical
// for equal (workload, seed, rate); the rest is wall-clock.
type result struct {
	Virt     virt
	BuildS   float64 // wall seconds in cluster.New
	PreloadS float64 // wall seconds in Cluster.Preload, SettleIO included
	PhaseS   float64 // wall seconds of the measured phase
	// Ref is the host's speed on the calibration loop before the set-up,
	// between it and the phase, and after the phase.
	Ref    [3]float64
	HeapMB float64 // live heap after a forced GC at the end of the phase, the benchmark's records dropped
	Allocs uint64  // heap allocations during the phase
	Bytes  uint64  // heap bytes allocated during the phase
	GCPct  float64 // GC share of busy CPU during the phase
	// Traced runs only: the CPU profile's split and the issue spans.
	Host       hostSplit
	IssueNS    float64
	IssueSpans int
}

// newRun builds and preloads the deployment, timing both on the wall clock.
func newRun(s *spec, seed int64, kops float64, window sim.Time, trace bool) (*run, *result) {
	r := &run{spec: s, window: window, trace: trace}
	res := &result{}
	res.Ref[0] = hostSpeed()
	t0 := time.Now()
	r.cl = cluster.New(s.config())
	t1 := time.Now()
	r.cl.Preload(s.keys, s.valueSize, keyOf)
	t2 := time.Now()
	res.BuildS = t1.Sub(t0).Seconds()
	res.PreloadS = t2.Sub(t1).Seconds()
	res.Ref[1] = hostSpeed()

	// Inputs come from the seed alone: Poisson arrivals at kops/clients
	// per client and one operation-mix generator per client.
	rng := rand.New(rand.NewSource(seed))
	perClient := kops * 1e3 / clients
	for ci := range r.arrivals {
		var t float64
		for {
			t += rng.ExpFloat64() / perClient * float64(sim.Second)
			if sim.Time(t) >= window {
				break
			}
			r.arrivals[ci] = append(r.arrivals[ci], sim.Time(t))
		}
		r.gens[ci] = workload.New(workload.Config{
			Keys: s.keys, ValueSize: s.valueSize, ReadFraction: s.readFrac,
			Pattern: s.pattern, Seed: seed*clients + int64(ci) + 1,
		})
	}
	ops := len(r.arrivals[0]) + len(r.arrivals[1])
	r.nextSeq = make([]int32, s.keys)
	r.recs = make([]record, 0, ops)
	if trace {
		r.issues = make([]span, 0, ops)
	}
	return r, res
}

// execute runs the measured phase and fills res.
func (r *run) execute(res *result) error {
	before := snapshot(r.cl)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	gc0 := gcSample()

	r.start = r.cl.Env.Now()
	for ci := range r.arrivals {
		r.cl.Env.Spawn("perfbench-gen", func(p *sim.Proc) { r.generate(p, ci) })
	}
	r.cl.Env.Spawn("perfbench-backlog", r.sampleBacklog)

	var prof bytes.Buffer
	if r.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	t0 := time.Now()
	r.cl.Env.Run()
	res.PhaseS = time.Since(t0).Seconds()
	for ci := range r.pending {
		r.retire(ci, true)
	}
	if r.trace {
		pprof.StopCPUProfile()
	}

	runtime.ReadMemStats(&ms1)
	gc1 := gcSample()
	res.Allocs = ms1.Mallocs - ms0.Mallocs
	res.Bytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.GCPct = gc1.pctSince(gc0)
	res.Ref[2] = hostSpeed() // after the phase's allocation counts

	res.Virt = r.summarize(delta(before, snapshot(r.cl)))
	if r.trace {
		for _, sp := range r.issues {
			res.IssueNS += float64(sp.end - sp.start)
		}
		res.IssueSpans = len(r.issues)
	}
	// The live heap is the deployment's alone: the benchmark's per-operation
	// state is summarized and dropped first, the cluster kept live.
	r.recs, r.issues, r.arrivals, r.pending = nil, nil, [clients][]sim.Time{}, [clients][]inflight{}
	res.HeapMB = liveHeapMB()
	runtime.KeepAlive(r.cl)
	if r.trace {
		var err error
		if res.Host, err = splitProfile(prof.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// generate is one client's open-loop generator: it issues each operation at
// its due time whatever the state of earlier ones.
func (r *run) generate(p *sim.Proc, ci int) {
	c := r.cl.Clients[ci]
	gen := r.gens[ci]
	for n, due := range r.arrivals[ci] {
		if r.aborted {
			return
		}
		if at := r.start + due; at > p.Now() {
			p.WaitUntil(at)
		}
		kind, key := gen.Next()
		idx := keyIndex(key)
		rec := record{due: due, key: int32(idx), set: kind == workload.OpSet}
		op := core.Op{Code: protocol.OpGet, Key: key}
		if rec.set {
			r.nextSeq[idx]++
			rec.seq = r.nextSeq[idx]
			op = core.Op{Code: protocol.OpSet, Key: key, ValueSize: r.spec.valueSize,
				Value: tag{key: int32(idx), seq: rec.seq}}
		}
		rec.issued = p.Now() - r.start
		req, err := c.Issue(p, op)
		if err != nil {
			// Issue refuses only a transport it does not serve; count the
			// refusal as a failed operation.
			rec.done, rec.status = -1, protocol.StatusError
			r.recs = append(r.recs, rec)
			continue
		}
		id := int32(len(r.recs))
		if r.trace {
			r.issues = append(r.issues, span{start: rec.issued, end: p.Now() - r.start})
		}
		r.recs = append(r.recs, rec)
		r.pending[ci] = append(r.pending[ci], inflight{req: req, rec: id})
		if n%64 == 0 {
			r.retire(ci, false)
		}
	}
}

// retire moves completed requests at the head of a client's in-flight list
// into their records; all of them once the simulation has drained.
func (r *run) retire(ci int, final bool) {
	q := r.pending[ci]
	i := 0
	for ; i < len(q); i++ {
		req := q[i].req
		if !req.Done() && !final {
			break
		}
		rec := &r.recs[q[i].rec]
		if !req.Done() {
			rec.done, rec.status = -1, protocol.StatusError
			continue
		}
		rec.done = req.CompletedAt - r.start
		rec.status = req.Status
		if req.Err() != nil && req.Status == protocol.StatusOK {
			rec.status = protocol.StatusError
		}
		if !rec.set {
			rec.seq = readSeq(req, rec.key)
		}
	}
	r.pending[ci] = append(q[:0], q[i:]...)
}

// readSeq decodes a GET's returned value into the sequence it carries.
func readSeq(req *core.Req, key int32) int32 {
	if req.Status != protocol.StatusOK {
		return seqMiss
	}
	switch v := req.Value.(type) {
	case nil:
		return seqEmpty
	case tag:
		if v.key == key {
			return v.seq
		}
	case string:
		if v == "v"+strconv.Itoa(int(key)) {
			return 0
		}
	}
	return seqForeign
}

// sampleBacklog records, through the issue window, how many operations
// were due but not yet completed, and aborts the run once that passes
// backlogCap.
func (r *run) sampleBacklog(p *sim.Proc) {
	step := r.window / samplesPerWindow
	for k := 1; k <= samplesPerWindow; k++ {
		at := sim.Time(k) * step
		p.WaitUntil(r.start + at)
		// Due but not issued yet, plus issued but not completed.
		b := int64(-len(r.recs))
		for ci := range r.arrivals {
			b += int64(countDue(r.arrivals[ci], at))
			for _, f := range r.pending[ci] {
				if !f.req.Done() {
					b++
				}
			}
		}
		r.backlog = append(r.backlog, b)
		if b > backlogCap {
			r.aborted = true
			return
		}
	}
}

// countDue is the number of arrivals due at or before t.
func countDue(arr []sim.Time, t sim.Time) int {
	lo, hi := 0, len(arr)
	for lo < hi {
		mid := (lo + hi) / 2
		if arr[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func keyIndex(key string) int {
	n, err := strconv.Atoi(key[len("obj:"):])
	if err != nil {
		panic("perfbench: unexpected key " + key)
	}
	return n
}

// refSpeed is the calibration loop's speed, in thousand iterations per
// second, of the reference host that wall-clock figures are scaled to.
const refSpeed = 1000

// hostSpeed times the calibration loop: goroutine handoffs over unbuffered
// channels, map updates and small allocations, the simulator's hot paths in
// plain Go. It uses no program code, so a change to the program cannot
// move it, while a host that runs slower (a shared machine's neighbours,
// its clock) slows it with the simulator.
func hostSpeed() float64 {
	const n = 100000
	t0 := time.Now()
	in, out := make(chan int), make(chan int)
	go func() {
		for v := range in {
			out <- v + 1
		}
	}()
	m := make(map[int][]byte)
	for i := 0; i < n; i++ {
		in <- i
		m[i%4096] = make([]byte, 64+<-out%64)
	}
	close(in)
	return n / time.Since(t0).Seconds() / 1e3
}

// atRef scales wall seconds measured while the calibration loop ran at
// speed to the reference host.
func atRef(seconds, speed float64) float64 { return seconds * speed / refSpeed }

// hostSpeedOf is the median calibration speed over runs: the host's speed
// over the whole invocation, its second-to-second noise left out.
func hostSpeedOf(runs []*result) float64 {
	var speeds []float64
	for _, r := range runs {
		speeds = append(speeds, r.Ref[:]...)
	}
	return median(speeds)
}

// liveHeapMB is the live heap after a forced GC.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcStat samples the runtime's CPU accounting.
type gcStat struct{ gc, total, idle float64 }

var gcNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func gcSample() gcStat {
	s := make([]metrics.Sample, len(gcNames))
	for i, n := range gcNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return gcStat{gc: v(0), total: v(1), idle: v(2)}
}

// pctSince is the share of non-idle CPU spent in GC since b.
func (a gcStat) pctSince(b gcStat) float64 {
	busy := (a.total - a.idle) - (b.total - b.idle)
	if busy <= 0 {
		return 0
	}
	return 100 * math.Max(0, a.gc-b.gc) / busy
}
