// Command perfbench is the repository's benchmark. It preloads a simulated
// cluster, drives one workload open-loop through core.Client.Issue, checks
// every answer against a correctness oracle, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer ones) by name and unit. The last
// line of standard output is one JSON object with the result. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload name: ssd-rw50, bypass-read95 or repl-rw50")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "wall-clock seconds the nominal-rate run is repeated for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	isChild := flag.Bool("child", false, "run one measurement at -kops for -window and write it to standard output in gob")
	kops := flag.Float64("kops", 0, "offered rate of a -child measurement")
	window := flag.Duration("window", 0, "virtual issue window of a -child measurement")
	flag.Parse()
	s, err := specByName(*wl)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Each measurement's load comes from one process. The simulation
	// kernel runs one goroutine at a time and hands control over channels;
	// on one processor each handoff stays on the same thread, which on a
	// 2-vCPU host made the simulator about a fifth faster than with two.
	runtime.GOMAXPROCS(1)

	if *isChild {
		if *kops <= 0 || *window <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: -child needs a positive -kops and -window, got %g and %v\n", *kops, *window)
			os.Exit(2)
		}
		if err := child(s, *seed, *kops, *window, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	budget := time.Duration(*seconds) * time.Second
	var out *report
	if *trace == 1 {
		out, err = traced(s, *seed, budget)
	} else {
		out, err = untraced(s, *seed, budget)
	}
	if err == nil {
		err = out.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's output for one invocation.
type report struct {
	workload  string
	seed      int64
	lines     []string // context printed before the metrics
	names     []string // metric names in print order
	notes     []string // one per name
	metrics   map[string]metric
	correct   bool
	problems  []string // why correct is false
	attempted int
	failures  []failure
}

func newReport(s *spec, seed int64) *report {
	return &report{workload: s.name, seed: seed, metrics: map[string]metric{}, correct: true}
}

func (r *report) add(name string, v float64, unit, note string) {
	r.names = append(r.names, name)
	r.notes = append(r.notes, note)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// maxListed bounds the failures printed one per line.
const maxListed = 20

// print writes the report, ending with the JSON result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d\n", r.workload, r.seed)
	for _, l := range r.lines {
		fmt.Fprintln(w, "  "+l)
	}
	for i, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %-8s %s\n", n, m.Value, m.Unit, r.notes[i])
	}
	byReason := map[string]int{}
	for i, f := range r.failures {
		byReason[f.Reason]++
		if i < maxListed {
			fmt.Fprintf(w, "  failed: seed %d %s\n", r.seed, f)
		}
	}
	if len(r.failures) > maxListed {
		fmt.Fprintf(w, "  ... %d more failed operations\n", len(r.failures)-maxListed)
	}
	reasons := make([]string, 0, len(byReason))
	for reason := range byReason {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(w, "  failed operations: %d %s\n", byReason[reason], reason)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, len(r.failures), r.metrics})
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// sameVirt compares two runs' virtual-time results, naming the first part
// that differs.
func sameVirt(a, b *virt) error {
	switch {
	case a.Hash != b.Hash:
		return errors.New("operation records differ")
	case !reflect.DeepEqual(a.Layers, b.Layers):
		return errors.New("layer counters differ")
	case !reflect.DeepEqual(a.Backlog, b.Backlog):
		return errors.New("backlog samples differ")
	case !reflect.DeepEqual(a, b):
		return errors.New("virtual-time results differ")
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
