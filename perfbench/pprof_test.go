package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

const traces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 80ms ( 8.00%)
-----------+-------------------------------------------------------
      30ms   hybridkv/internal/replication.(*Replicator).digestFor
             hybridkv/internal/replication.(*Replicator).scrub
-----------+-------------------------------------------------------
      10ms   runtime.releaseSudog (inline)
             runtime.chanrecv
             runtime.chanrecv1
             hybridkv/internal/sim.(*Proc).Sleep
-----------+-------------------------------------------------------
      40ms   hybridkv/internal/sim.(*wakeupHeap).Push
             container/heap.Push
             main.main
-----------+-------------------------------------------------------
`

func TestSplitTraces(t *testing.T) {
	h, err := splitTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"replication": 37.5, "sim": 50, "core": 0}
	for pkg, w := range want {
		if h.Self[pkg] != w {
			t.Errorf("self[%s] = %g, want %g", pkg, h.Self[pkg], w)
		}
	}
	if h.CPU != 80*time.Millisecond || h.Handoff != 12.5 || h.Heap != 50 {
		t.Errorf("cpu %v handoff %g heap %g, want 80ms, 12.5, 50", h.CPU, h.Handoff, h.Heap)
	}
	if _, err := splitTraces("File: perfbench\n"); err == nil {
		t.Error("output without samples parsed")
	}
}

func TestSplitProfileReadsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
	}
	pprof.StopCPUProfile()
	h, err := splitProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h.CPU == 0 {
		t.Fatal("200ms of spinning left no profiled CPU time")
	}
}
