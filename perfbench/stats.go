package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// never is the latency a failed or never-completed operation counts as: it
// misses every limit.
const never = sim.Time(math.MaxInt64)

// percentile returns the nearest-rank q-quantile of sorted, and whether at
// least minBeyond samples lie above its rank.
func percentile(sorted []sim.Time, q float64) (sim.Time, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], n-1-rank >= minBeyond
}

// latency is one operation class's percentiles and mean over the measured
// part of a run, with their sample count. The mean is over the operations
// that did not fail; a failed one has no latency to average.
type latency struct {
	N            int
	P50, P99     sim.Time
	P50OK, P99OK bool
	Mean         float64
}

func latencyOf(samples []sim.Time) latency {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	l := latency{N: len(samples)}
	l.P50, l.P50OK = percentile(samples, 0.50)
	l.P99, l.P99OK = percentile(samples, 0.99)
	var sum float64
	var n int
	for _, x := range samples {
		if x != never {
			sum += float64(x)
			n++
		}
	}
	l.Mean = ratio(sum, float64(n))
	return l
}

// failure is one operation the oracle rejected.
type failure struct {
	Idx    int // index of the operation's record
	Key    int32
	Set    bool
	Seq    int32 // the sequence the GET returned, where that is the fault
	Issued sim.Time
	Reason string
}

func (f failure) String() string {
	op := "GET"
	if f.Set {
		op = "SET"
	}
	if f.Seq > 0 {
		return fmt.Sprintf("%s %s at %v: %s (seq %d)", op, keyOf(int(f.Key)), f.Issued, f.Reason, f.Seq)
	}
	return fmt.Sprintf("%s %s at %v: %s", op, keyOf(int(f.Key)), f.Issued, f.Reason)
}

// check runs the correctness oracle over every operation of a run:
//   - a SET must be stored;
//   - a GET must hit, since every key is preloaded and none is deleted or
//     expired, and the hit must carry a value;
//   - a hit must carry a value written for its key by a SET issued before
//     the GET completed;
//   - a hit must not be stale: if SET X was acknowledged before the GET was
//     issued, the GET may not return a SET acknowledged before X was issued
//     (the preload counts as acknowledged before everything).
//
// It returns the failures and whether any hit carried a value that no SET
// wrote for its key: that is corruption, where a miss, an empty hit or a
// stale one loses or hides a write.
func check(recs []record, keys int) (fails []failure, corrupt bool) {
	type setRec struct{ issued, done sim.Time }
	sets := make([][]setRec, keys)  // per key, indexed by seq-1
	acked := make([][]setRec, keys) // per key, stored SETs by completion
	for i := range recs {
		r := &recs[i]
		if !r.set {
			continue
		}
		done := r.done
		if done < 0 || r.status != protocol.StatusStored {
			done = never
		}
		sets[r.key] = append(sets[r.key], setRec{r.issued, done})
		if done != never {
			acked[r.key] = append(acked[r.key], setRec{r.issued, done})
		}
	}
	// floor[k][i] is the latest issue time among the first i+1 SETs of
	// key k to be acknowledged.
	floor := make([][]sim.Time, keys)
	for k, a := range acked {
		sort.Slice(a, func(i, j int) bool { return a[i].done < a[j].done })
		f := make([]sim.Time, len(a))
		var m sim.Time = -1
		for i, s := range a {
			if s.issued > m {
				m = s.issued
			}
			f[i] = m
		}
		floor[k] = f
	}
	for i := range recs {
		r := &recs[i]
		fail := func(r *record, reason string) {
			fails = append(fails, failure{Idx: i, Key: r.key, Set: r.set, Seq: r.seq, Issued: r.issued, Reason: reason})
		}
		switch {
		case r.done < 0:
			fail(r, "never completed")
		case r.set && r.status != protocol.StatusStored:
			fail(r, "status "+r.status.String())
		case r.set:
		case r.seq == seqMiss:
			fail(r, "preloaded key answered "+r.status.String())
		case r.seq == seqEmpty:
			fail(r, "hit carried no value")
		case r.seq == seqForeign || int(r.seq) > len(sets[r.key]):
			fail(r, "value not written for this key")
			corrupt = true
		default:
			var written sim.Time = -1 // the preload
			if r.seq > 0 {
				w := sets[r.key][r.seq-1]
				if w.issued > r.done {
					fail(r, "returned a SET issued after the GET completed")
					corrupt = true
					continue
				}
				written = w.done
			}
			a := acked[r.key]
			n := sort.Search(len(a), func(i int) bool { return a[i].done >= r.issued })
			if n > 0 && written != never && written < floor[r.key][n-1] {
				fail(r, "stale: returned a SET acknowledged before a newer acknowledged SET was issued")
			}
		}
	}
	return fails, corrupt
}

// rungPasses is the goodput rule for one offered rate: both p99s are
// measurable and within limit (failed operations count as over it), the
// run was not aborted, and its backlog did not grow.
func rungPasses(v *virt, limit sim.Time, slack int64) bool {
	return !v.Aborted && v.Get.P99OK && v.Set.P99OK &&
		v.Get.P99 <= limit && v.Set.P99 <= limit && !backlogGrows(v.Backlog, slack)
}

// backlogGrows reports whether the due-but-not-completed count trends up
// over the issue window: the second half's mean is above slack and more
// than twice the first half's. A backlog growing at a steady rate from
// zero has a second-half mean three times the first's; a stable one stays
// within a bounded band whatever its level.
func backlogGrows(samples []int64, slack int64) bool {
	if len(samples) < 2 {
		return false
	}
	h := len(samples) / 2
	first, second := mean(samples[:h]), mean(samples[h:])
	return second > float64(slack) && second > 2*first
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// slackFor is the backlog a stable system may carry at rate kops: the
// operations in flight if each took the whole latency limit (Little's
// law), and at least one per client.
func slackFor(kops float64, limit sim.Time) int64 {
	s := int64(kops * 1e3 * limit.Seconds())
	if s < clients {
		s = clients
	}
	return s
}

// goodput climbs the ladder from the bottom until the first rung that
// fails, then bisects between the last passing rung and that one until
// they are at most resolution apart as a share of the passing rate. It
// returns the highest passing rate, or 0 if the first rung fails, and the
// ladder's top if every rung passes; pass is asked for each rate in turn.
func goodput(ladder []float64, resolution float64, pass func(kops float64) bool) float64 {
	lo, hi := 0.0, 0.0
	for _, k := range ladder {
		if !pass(k) {
			hi = k
			break
		}
		lo = k
	}
	if lo == 0 || hi == 0 {
		return lo
	}
	for hi-lo > resolution*lo {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ratio is num/den, or 0 when den is 0: a layer that saw none of the
// denominator's events (bypass counters on a workload without bypass)
// reports 0, never NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fingerprint hashes every record, so two runs compare equal only if each
// operation was issued, completed and answered identically.
func fingerprint(recs []record) uint64 {
	h := fnv.New64a()
	var b [33]byte
	for _, r := range recs {
		put := func(off int, v int64) {
			for i := 0; i < 8; i++ {
				b[off+i] = byte(v >> (8 * i))
			}
		}
		put(0, int64(r.due))
		put(8, int64(r.issued))
		put(16, int64(r.done))
		put(24, int64(r.key)<<32|int64(uint32(r.seq)))
		b[32] = byte(r.status)
		if r.set {
			b[32] |= 0x80
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
