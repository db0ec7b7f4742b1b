package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// modelPackages are the packages whose self time the host split reports.
var modelPackages = []string{
	"sim", "simnet", "verbs", "core", "server", "store", "hybridslab",
	"slab", "pagecache", "blockdev", "replication", "protocol", "metrics",
}

// hostSplit is the share of profiled CPU time per class, in percent.
type hostSplit struct {
	CPU     time.Duration      // profiled CPU time
	Handoff float64            // stacks in goroutine handoff: channel send/receive, park, schedule
	Heap    float64            // stacks in the simulator's event heap
	Self    map[string]float64 // per model package, by the innermost frame
}

// handoffFrames mark time the kernel spends handing control between the
// scheduler and process goroutines.
var handoffFrames = []string{"runtime.chansend", "runtime.chanrecv", "runtime.park_m", "runtime.schedule"}

// heapFrames mark the simulator's wakeup heap.
var heapFrames = []string{"hybridkv/internal/sim.wakeupHeap.", "hybridkv/internal/sim.(*wakeupHeap).", "container/heap."}

// splitProfile classifies the samples of a CPU profile, read through
// `go tool pprof -traces`. run.sh, which builds the benchmark, has the go
// command on the path.
func splitProfile(data []byte) (hostSplit, error) {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return hostSplit{}, fmt.Errorf("profile: %w", err)
	}
	defer os.Remove(f.Name())
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return hostSplit{}, fmt.Errorf("profile: %w", err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", f.Name()).Output()
	if err != nil {
		return hostSplit{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return splitTraces(string(out))
}

// traceSeparator starts each sample in `go tool pprof -traces` output. The
// sample's first line holds its CPU time and innermost frame; each further
// line holds one caller.
const traceSeparator = "-----------+"

// splitTraces classifies the samples of `go tool pprof -traces` output.
func splitTraces(text string) (hostSplit, error) {
	var total, handoff, heap time.Duration
	self := map[string]time.Duration{}
	blocks := strings.Split(text, traceSeparator)
	for _, b := range blocks[1:] {
		lines := strings.Split(b, "\n")[1:] // the rest of the separator line
		if len(lines) == 0 || strings.TrimSpace(lines[0]) == "" {
			continue
		}
		weight, leaf, _ := strings.Cut(strings.TrimSpace(lines[0]), " ")
		w, err := time.ParseDuration(weight)
		if err != nil {
			return hostSplit{}, fmt.Errorf("profile: sample weight %q: %w", weight, err)
		}
		stack := []string{frame(leaf)}
		for _, l := range lines[1:] {
			if fn := frame(l); fn != "" {
				stack = append(stack, fn)
			}
		}
		total += w
		if anyFrame(stack, handoffFrames) {
			handoff += w
		}
		if anyFrame(stack, heapFrames) {
			heap += w
		}
		if pkg, ok := modelPackage(stack[0]); ok {
			self[pkg] += w
		}
	}
	if len(blocks) < 2 {
		return hostSplit{}, fmt.Errorf("profile: no samples in pprof output")
	}
	h := hostSplit{CPU: total, Self: map[string]float64{}}
	pct := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(total)) }
	h.Handoff, h.Heap = pct(handoff), pct(heap)
	for _, p := range modelPackages {
		h.Self[p] = pct(self[p])
	}
	return h, nil
}

// frame is the function name on one line of a pprof trace.
func frame(line string) string {
	return strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
}

func anyFrame(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// modelPackage maps a function name such as
// "hybridkv/internal/replication.(*Replicator).digestFor" to "replication".
func modelPackage(fn string) (string, bool) {
	const prefix = "hybridkv/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexByte(rest, '.'); i > 0 {
		return rest[:i], true
	}
	return "", false
}
