// Package sim implements a deterministic discrete-event simulation kernel.
//
// Every actor in the simulated cluster that blocks (client, server worker,
// NIC engine, SSD channel, writeback daemon, ...) runs as a Proc: a goroutine
// that executes under a virtual clock owned by an Env. Short jobs that never
// block (a fabric delivery, a send completion one propagation delay after
// delivery) run as callbacks instead: Env.At and Event.OnFire schedule a
// plain func that runs to completion at its instant, with no goroutine of
// its own.
//
// Pending wakeups sit in one heap ordered by (time, seq). A callback takes
// exactly the slot a process spawned or woken at the same point would take,
// so turning a process that never blocks into a callback leaves the order of
// every event unchanged. Exactly one goroutine runs simulation code at any
// instant, and control moves by direct handoff: a process that parks or
// finishes pops the heap itself, runs any callbacks due first, and resumes
// the next process, or simply carries on when the next wakeup is its own.
// Control returns to the goroutine inside Run only when the heap is empty,
// the RunUntil limit is reached, or a process or callback has panicked.
// Shared simulation state therefore needs no locking, results are
// bit-for-bit reproducible, and virtual time advances with nanosecond
// precision regardless of host timer resolution.
//
// The blocking primitives (Sleep, Event.Wait, Queue.Get/Put,
// Resource.Acquire) must only be called from inside the owning process's
// goroutine, never from a callback. Non-blocking variants (TryGet, TryPut,
// Fire, ...) may be called from any process or callback, or from outside the
// simulation before Run starts.
package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Time is virtual time elapsed since the start of the simulation.
type Time = time.Duration

// Common virtual-time units, re-exported so model code does not need to
// import time alongside sim.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// wakeup is a pending reason for a process to resume, or a callback to run.
// A process may have several outstanding wakeups (e.g. an event wait plus a
// timeout); whichever is delivered first cancels the rest.
type wakeup struct {
	at       Time
	seq      int64
	p        *Proc  // process to resume; nil for a callback
	fn       func() // callback run to completion when p is nil
	tag      int    // cause identifier, returned to the parked process
	canceled bool
	queued   bool // on the heap
}

// before orders wakeups by time, then by scheduling sequence.
func before(a, b *wakeup) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// wakeupHeap is a binary min-heap of wakeups in (at, seq) order.
type wakeupHeap []*wakeup

func (h *wakeupHeap) push(w *wakeup) {
	w.queued = true
	s := append(*h, w)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !before(w, s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = w
	*h = s
}

func (h *wakeupHeap) pop() *wakeup {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(s[r], s[c]) {
				c = r
			}
			if !before(s[c], last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	top.queued = false
	return top
}

// Env owns the virtual clock and the event queue of one simulation.
type Env struct {
	now   Time
	seq   int64
	heap  wakeupHeap
	limit Time          // latest wakeup time the current RunUntil delivers; < 0 for none
	yield chan struct{} // hands control back to the goroutine inside RunUntil
	alive int
	fault any // first panic value raised by a process or callback
}

// NewEnv returns a fresh simulation environment with the clock at zero.
func NewEnv() *Env {
	return &Env{yield: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Alive returns the number of processes that have been spawned and have not
// yet finished. Callbacks are not processes and never count.
func (e *Env) Alive() int { return e.alive }

// Proc is one simulated process. All blocking kernel primitives take place
// on behalf of a Proc and must be invoked from its own goroutine.
type Proc struct {
	env      *Env
	name     string
	resume   chan struct{}
	pending  []*wakeup
	wokenTag int
	xfer     any // value slot for queue handoff
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. It may be called before Run, or from any running
// process or callback.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is like Spawn but delays the process start until virtual time t.
func (e *Env) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	if t < e.now {
		t = e.now
	}
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	e.alive++
	go func() {
		<-p.resume
		func() {
			// Capture process panics so the scheduler can re-raise them
			// from Run, in the simulation driver's goroutine.
			defer func() {
				if r := recover(); r != nil && e.fault == nil {
					e.fault = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}()
			fn(p)
		}()
		e.alive--
		e.switchTo(e.advance())
	}()
	e.scheduleWakeup(t, p, 0)
	return p
}

// At schedules fn to run at virtual time t (no earlier than now) as a
// callback. It takes the (time, seq) slot SpawnAt would give a process, so
// a callback and a process due at the same instant run in the order they
// were scheduled. fn runs to completion in whichever goroutine is
// dispatching: it must not block, and it never counts in Alive.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.heap.push(&wakeup{at: t, seq: e.seq, fn: fn})
}

// scheduleWakeup enqueues a wakeup for p at time t and returns it.
func (e *Env) scheduleWakeup(t Time, p *Proc, tag int) *wakeup {
	e.seq++
	w := &wakeup{at: t, seq: e.seq, p: p, tag: tag}
	p.pending = append(p.pending, w)
	e.heap.push(w)
	return w
}

// pendingWakeup registers a wakeup that is not yet scheduled on the clock
// (used by Event waiters and queue waiters; they are pushed onto the heap
// when fired/served).
func (e *Env) pendingWakeup(p *Proc, tag int) *wakeup {
	e.seq++
	w := &wakeup{seq: e.seq, p: p, tag: tag}
	p.pending = append(p.pending, w)
	return w
}

// fireWakeup schedules a previously pending wakeup to deliver now.
func (e *Env) fireWakeup(w *wakeup) {
	if w.canceled || w.queued {
		return
	}
	w.at = e.now
	e.seq++
	w.seq = e.seq
	e.heap.push(w)
}

// advance delivers due wakeups in (at, seq) order from whichever goroutine
// holds control. Callbacks run inline; the first process wakeup has its
// process's other pending wakeups canceled, and that process is returned to
// run next. advance returns nil when control belongs back in RunUntil: the
// heap is empty, the next wakeup lies past the limit, or a process or
// callback has panicked.
func (e *Env) advance() *Proc {
	for e.fault == nil && len(e.heap) > 0 {
		w := e.heap[0]
		if w.canceled {
			e.heap.pop()
			continue
		}
		if e.limit >= 0 && w.at > e.limit {
			return nil
		}
		e.heap.pop()
		if w.at > e.now {
			e.now = w.at
		}
		p := w.p
		if p == nil {
			e.call(w.fn)
			continue
		}
		for _, o := range p.pending {
			if o != w {
				o.canceled = true
			}
		}
		p.pending = p.pending[:0]
		p.wokenTag = w.tag
		return p
	}
	return nil
}

// call runs a callback, capturing a panic so that RunUntil re-raises it in
// its caller's goroutine, whichever goroutine dispatched the callback.
func (e *Env) call(fn func()) {
	defer func() {
		if r := recover(); r != nil && e.fault == nil {
			e.fault = fmt.Errorf("sim: callback panicked: %v\n%s", r, debug.Stack())
		}
	}()
	fn()
}

// switchTo resumes next, or hands control back to RunUntil if next is nil.
func (e *Env) switchTo(next *Proc) {
	if next != nil {
		next.resume <- struct{}{}
	} else {
		e.yield <- struct{}{}
	}
}

// park blocks the calling process until one of its pending wakeups is
// delivered, and returns that wakeup's tag. All other pending wakeups are
// canceled. The parking process dispatches the next wakeup itself, and when
// that wakeup is its own it carries on without a goroutine switch.
func (p *Proc) park() int {
	e := p.env
	if next := e.advance(); next != p {
		e.switchTo(next)
		<-p.resume
	}
	return p.wokenTag
}

// Run executes the simulation until no scheduled wakeups remain, and returns
// the final virtual time. Processes still blocked on events/queues at that
// point remain parked; use Parked or Alive to detect them in tests.
func (e *Env) Run() Time { return e.RunUntil(-1) }

// RunUntil executes scheduled wakeups with time ≤ limit (limit < 0 means no
// limit) and returns the virtual time reached. A panic raised by a process
// or callback is re-raised here.
func (e *Env) RunUntil(limit Time) Time {
	e.limit = limit
	if next := e.advance(); next != nil {
		next.resume <- struct{}{}
		<-e.yield
	}
	if f := e.fault; f != nil {
		e.fault = nil
		panic(f)
	}
	if limit > e.now {
		e.now = limit
	}
	return e.now
}

// Parked reports how many live processes are currently blocked with no
// scheduled wakeup (i.e. waiting on an Event, Queue or Resource). Only
// meaningful when Run has returned.
func (e *Env) Parked() int {
	return e.alive
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events already scheduled).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleWakeup(p.env.now+d, p, 0)
	p.park()
}

// WaitUntil suspends the process until virtual time t (no-op if t has
// passed).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.env.now {
		p.Yield()
		return
	}
	p.env.scheduleWakeup(t, p, 0)
	p.park()
}

// Yield reschedules the process at the current time behind already-scheduled
// same-time wakeups.
func (p *Proc) Yield() {
	p.env.scheduleWakeup(p.env.now, p, 0)
	p.park()
}

// Event is a one-shot condition processes can wait on. The zero value is not
// usable; create with Env.NewEvent.
type Event struct {
	env     *Env
	fired   bool
	waiters []*wakeup
}

// NewEvent returns a fresh unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event complete and wakes all waiters at the current virtual
// time. Firing an already-fired event is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, w := range ev.waiters {
		ev.env.fireWakeup(w)
	}
	ev.waiters = nil
}

// Wait blocks the process until the event fires. Returns immediately if it
// already has.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	w := p.env.pendingWakeup(p, 0)
	ev.waiters = append(ev.waiters, w)
	p.park()
}

// OnFire registers fn to run as a callback when ev fires, in the slot a
// process calling Wait at this point would be woken in. If ev has already
// fired, fn runs at once, just as Wait returns at once. fn must not block.
func (ev *Event) OnFire(fn func()) {
	if ev.fired {
		fn()
		return
	}
	ev.waiters = append(ev.waiters, &wakeup{fn: fn})
}

// tags distinguishing wakeup causes for multi-cause parks.
const (
	tagDefault = 0
	tagEvent   = 1
	tagTimeout = 2
)

// WaitTimeout blocks until the event fires or d elapses, whichever is first.
// It reports whether the event fired (true) or the timeout won (false).
func (p *Proc) WaitTimeout(ev *Event, d Time) bool {
	if ev.fired {
		return true
	}
	if d <= 0 {
		return false
	}
	w := p.env.pendingWakeup(p, tagEvent)
	ev.waiters = append(ev.waiters, w)
	p.env.scheduleWakeup(p.env.now+d, p, tagTimeout)
	return p.park() == tagEvent
}

// WaitAny blocks until any of the given events fires, returning the index of
// the first fired event. If one is already fired, returns immediately.
func (p *Proc) WaitAny(evs ...*Event) int {
	for i, ev := range evs {
		if ev.fired {
			return i
		}
	}
	if len(evs) == 0 {
		panic("sim: WaitAny with no events")
	}
	for i, ev := range evs {
		w := p.env.pendingWakeup(p, i)
		ev.waiters = append(ev.waiters, w)
	}
	return p.park()
}

// AnyOf returns an event that fires as soon as any input event fires.
func (e *Env) AnyOf(evs ...*Event) *Event {
	out := e.NewEvent()
	for _, ev := range evs {
		if ev.fired {
			out.Fire()
			return out
		}
	}
	for _, ev := range evs {
		ev.observe(func() { out.Fire() })
	}
	return out
}

// AllOf returns an event that fires once all input events have fired.
func (e *Env) AllOf(evs ...*Event) *Event {
	out := e.NewEvent()
	remaining := 0
	for _, ev := range evs {
		if !ev.fired {
			remaining++
		}
	}
	if remaining == 0 {
		out.Fire()
		return out
	}
	for _, ev := range evs {
		if ev.fired {
			continue
		}
		ev.observe(func() {
			remaining--
			if remaining == 0 {
				out.Fire()
			}
		})
	}
	return out
}

// observe runs fn once ev has fired. The At(now) hop before registering
// gives the observer the (time, seq) slot of a process spawned here to Wait
// on ev, so AnyOf and AllOf fire their output in that same order.
func (ev *Event) observe(fn func()) {
	ev.env.At(ev.env.now, func() { ev.OnFire(fn) })
}

// String renders the env state, for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now=%v scheduled=%d alive=%d}", e.now, len(e.heap), e.alive)
}
