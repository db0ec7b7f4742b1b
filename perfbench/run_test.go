package main

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"hybridkv/internal/sim"
)

// tiny is bypass-read95 shrunk so a test runs it in well under a second.
func tiny() *spec {
	s := *specs[1]
	s.keys = 512
	s.nominalKops = 2000
	s.window = 2 * sim.Millisecond
	return &s
}

func runOnce(t *testing.T, s *spec, seed int64, trace bool) *result {
	t.Helper()
	res, err := measure(s, seed, s.nominalKops, s.window, trace)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSameSeedSameVirtualTime(t *testing.T) {
	s := tiny()
	a, b := runOnce(t, s, 3, false), runOnce(t, s, 3, false)
	if err := sameVirt(&a.Virt, &b.Virt); err != nil {
		t.Fatalf("same seed: %v", err)
	}
	if a.Virt.Attempted == 0 {
		t.Fatal("run attempted nothing")
	}
	if c := runOnce(t, s, 4, false); sameVirt(&a.Virt, &c.Virt) == nil {
		t.Fatal("another seed reproduced the same operations")
	}
}

func TestTracedRunKeepsVirtualTime(t *testing.T) {
	s := tiny()
	plain, traced := runOnce(t, s, 5, false), runOnce(t, s, 5, true)
	if err := sameVirt(&plain.Virt, &traced.Virt); err != nil {
		t.Fatalf("traced against untraced: %v", err)
	}
	if traced.IssueSpans != traced.Virt.Attempted || plain.IssueSpans != 0 {
		t.Fatalf("issue spans: traced %d for %d ops, untraced %d", traced.IssueSpans, traced.Virt.Attempted, plain.IssueSpans)
	}
	if traced.Host.CPU == 0 && traced.PhaseS > 0.5 {
		t.Fatalf("traced run of %.2fs took no CPU profile samples", traced.PhaseS)
	}
}

func TestChildResultRoundTrips(t *testing.T) {
	s := tiny()
	res := runOnce(t, s, 6, true)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	var back result
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Fatal("the result changed in transit")
	}
}

func TestWallSecondsScaleToTheReferenceHost(t *testing.T) {
	if got := atRef(2, refSpeed/2); got != 1 {
		t.Fatalf("2 s on a host at half the reference speed = %g reference seconds, want 1", got)
	}
	runs := []*result{{Ref: [3]float64{1, 9, 2}}, {Ref: [3]float64{3, 100, 4}}}
	if got := hostSpeedOf(runs); got != 3.5 {
		t.Fatalf("host speed over the runs = %g, want the median 3.5", got)
	}
	if s := hostSpeed(); s <= 0 {
		t.Fatalf("host speed %g", s)
	}
}
