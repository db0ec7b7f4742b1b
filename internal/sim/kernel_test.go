package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// chainStep is one step of an actor that never blocks a goroutine: wait for
// ev when it is non-nil, otherwise pause for d.
type chainStep struct {
	ev *Event
	d  Time
}

// chainRunner starts a chain actor at t. rec is called with the step index
// on entry and after every step.
type chainRunner func(e *Env, t Time, name string, steps []chainStep, rec func(name string, tag int))

// chainAsProcess runs a chain as a process: Wait for events, Sleep for
// pauses.
func chainAsProcess(e *Env, t Time, name string, steps []chainStep, rec func(string, int)) {
	e.SpawnAt(t, name, func(p *Proc) {
		rec(name, 0)
		for i, s := range steps {
			if s.ev != nil {
				p.Wait(s.ev)
			} else {
				p.Sleep(s.d)
			}
			rec(name, i+1)
		}
	})
}

// chainAsCallbacks runs the same chain with no process: At for the start
// and each pause, OnFire for each wait.
func chainAsCallbacks(e *Env, t Time, name string, steps []chainStep, rec func(string, int)) {
	var step func(i int)
	step = func(i int) {
		rec(name, i)
		if i == len(steps) {
			return
		}
		next := func() { step(i + 1) }
		if s := steps[i]; s.ev != nil {
			s.ev.OnFire(next)
		} else {
			e.At(e.Now()+s.d, next)
		}
	}
	e.At(t, func() { step(0) })
}

// dispatchOrder runs a seeded random mix of processes using every blocking
// primitive, plus chain actors started by chain, and hashes the order of
// dispatch as (now, name, tag) records.
func dispatchOrder(seed int64, chain chainRunner) uint64 {
	rng := rand.New(rand.NewSource(seed))
	e := NewEnv()
	h := fnv.New64a()
	rec := func(name string, tag int) { fmt.Fprintf(h, "%d %s %d\n", e.Now(), name, tag) }
	evs := make([]*Event, 12)
	for i := range evs {
		evs[i] = e.NewEvent()
	}
	pick := func() *Event { return evs[rng.Intn(len(evs))] }
	dur := func() Time { return Time(rng.Intn(40)) * Microsecond }
	q := NewQueue[int](e, 3)
	r := NewResource(e, 3)
	for i := 0; i < 80; i++ {
		name := fmt.Sprintf("a%d", i)
		start := dur()
		switch rng.Intn(9) {
		case 0:
			d1, d2 := dur(), dur()
			e.SpawnAt(start, name, func(p *Proc) {
				rec(name, 0)
				p.Sleep(d1)
				rec(name, 1)
				e.Spawn(name+"/child", func(c *Proc) {
					c.Sleep(d2)
					rec(c.Name(), 0)
				})
				p.Sleep(d2)
				rec(name, 2)
			})
		case 1:
			ev := pick()
			e.SpawnAt(start, name, func(p *Proc) {
				ev.Fire()
				rec(name, 0)
			})
		case 2:
			ev := pick()
			e.SpawnAt(start, name, func(p *Proc) {
				p.Wait(ev)
				rec(name, 0)
			})
		case 3:
			ev, d := pick(), dur()
			e.SpawnAt(start, name, func(p *Proc) {
				if p.WaitTimeout(ev, d) {
					rec(name, 1)
				} else {
					rec(name, 0)
				}
			})
		case 4:
			a, b, c := pick(), pick(), pick()
			e.SpawnAt(start, name, func(p *Proc) {
				rec(name, p.WaitAny(a, b, c))
				p.Wait(e.AnyOf(a, b))
				rec(name, 10)
				p.Wait(e.AllOf(b, c))
				rec(name, 11)
			})
		case 5:
			n, put, d := rng.Intn(3)+1, rng.Intn(2) == 0, dur()
			e.SpawnAt(start, name, func(p *Proc) {
				for k := 0; k < n; k++ {
					if put {
						q.Put(p, i*10+k)
						rec(name, k)
						continue
					}
					v, ok, timedOut := q.GetTimeout(p, d)
					if !ok || timedOut {
						v = -1
					}
					rec(name, v)
				}
			})
		case 6:
			n, d := rng.Intn(2)+1, dur()
			e.SpawnAt(start, name, func(p *Proc) {
				r.AcquireN(p, n)
				rec(name, 0)
				p.Sleep(d)
				r.ReleaseN(n)
				rec(name, 1)
			})
		default:
			steps := make([]chainStep, rng.Intn(4)+1)
			for k := range steps {
				if rng.Intn(2) == 0 {
					steps[k].ev = pick()
				} else {
					steps[k].d = dur()
				}
			}
			chain(e, start, name, steps, rec)
		}
	}
	e.Run()
	rec("end", 0)
	return h.Sum64()
}

// goldenDispatchOrder is the hash dispatchOrder gave, for seeds 1 to 8
// with chains run as processes, under the earlier kernel that resumed every
// process from the goroutine inside RunUntil. Both chain forms must still
// give it.
const goldenDispatchOrder uint64 = 0xf9ca20db44317828

func TestDispatchOrderGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		chain chainRunner
	}{{"process chains", chainAsProcess}, {"callback chains", chainAsCallbacks}} {
		h := fnv.New64a()
		for seed := int64(1); seed <= 8; seed++ {
			fmt.Fprintf(h, "%d\n", dispatchOrder(seed, c.chain))
		}
		if got := h.Sum64(); got != goldenDispatchOrder {
			t.Errorf("%s: dispatch order hash %#x, want %#x", c.name, got, goldenDispatchOrder)
		}
	}
}

func TestCallbackAndProcessAtSameInstantRunInSeqOrder(t *testing.T) {
	e := NewEnv()
	var order []string
	e.At(10, func() { order = append(order, "cb1") })
	e.SpawnAt(10, "proc", func(p *Proc) {
		order = append(order, "proc")
		p.Sleep(0)
		order = append(order, "proc-again")
	})
	e.At(10, func() { order = append(order, "cb2") })
	e.Run()
	if got := strings.Join(order, ","); got != "cb1,proc,cb2,proc-again" {
		t.Errorf("order %s, want cb1,proc,cb2,proc-again", got)
	}
}

func TestCallbackPanicFromProcessGoroutineReraisedByRun(t *testing.T) {
	e := NewEnv()
	// The sleeper parks at t=0 and dispatches the t=5 callback from its own
	// goroutine.
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
	e.At(5, func() { panic("boom") })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "callback panicked: boom") {
			t.Errorf("Run raised %v, want the callback's panic", r)
		}
	}()
	e.Run()
}

func TestRunUntilStopsBeforeLaterCallback(t *testing.T) {
	e := NewEnv()
	ran := false
	e.At(100, func() { ran = true })
	if got := e.RunUntil(50); got != 50 || ran {
		t.Errorf("RunUntil(50) = %v with ran=%v, want 50 and not run", got, ran)
	}
	if got := e.Run(); got != 100 || !ran {
		t.Errorf("Run = %v with ran=%v, want 100 and run", got, ran)
	}
}

func TestCallbacksNeverCountAsProcesses(t *testing.T) {
	e := NewEnv()
	never := e.NewEvent()
	e.At(10, func() {})
	never.OnFire(func() {})
	e.AnyOf(never, e.NewEvent())
	e.AllOf(never, e.NewEvent())
	if e.Alive() != 0 {
		t.Errorf("Alive=%d with only callbacks scheduled, want 0", e.Alive())
	}
	e.Run()
	if e.Alive() != 0 || e.Parked() != 0 {
		t.Errorf("Alive=%d Parked=%d after run, want 0/0", e.Alive(), e.Parked())
	}
}

func TestOnFireOnFiredEventRunsAtOnce(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Fire()
	ran := false
	ev.OnFire(func() { ran = true })
	if !ran {
		t.Error("OnFire on a fired event did not run fn at once")
	}
}

// The benchmarks count one op per kernel event, so ns/op and allocs/op are
// per event.

func BenchmarkSleep(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	e.Run()
}

// BenchmarkPingPong hands control between two processes through a pair of
// queues; each op is one handoff.
func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	ping, pong := NewQueue[int](e, 0), NewQueue[int](e, 0)
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i += 2 {
			ping.TryPut(i)
			pong.Get(p)
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i += 2 {
			ping.Get(p)
			pong.TryPut(i)
		}
	})
	e.Run()
}

func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	for i := 0; i < b.N; i++ {
		e.SpawnAt(Time(i), "p", func(*Proc) {})
	}
	e.Run()
}

func BenchmarkAt(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			e.At(e.Now()+Nanosecond, tick)
		}
	}
	e.At(0, tick)
	e.Run()
}
