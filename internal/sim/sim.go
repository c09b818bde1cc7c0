//go:build go1.23

// iter.Pull needs go1.23; the constraint raises this file's language
// version to match, as go vet requires. The module's go line stays at 1.22
// because the perfbench module requires this one and declares go 1.22.

// Package sim implements a deterministic virtual-time (discrete-event)
// execution kernel. It is the substrate on which Solros models hardware
// timing: PCIe links, DMA engines, NVMe service times, and CPU cost are all
// expressed as virtual-time charges, while the algorithms that run on top
// (ring buffers, file system, network stack) execute for real and move real
// bytes.
//
// The kernel runs each simulated activity (a Proc) as a coroutine
// (iter.Pull) and resumes exactly one at a time, always the one with the
// smallest virtual clock. A Proc suspends straight back to Run's loop, or
// not at all if it is still the earliest after advancing. This makes
// every simulation deterministic for a fixed set of Procs and a fixed
// tie-breaking order, regardless of the host machine's parallelism.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// Time is a virtual-time instant or duration in nanoseconds.
type Time int64

// Handy duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateWaiting
	stateDone
)

// Proc is a simulated thread of execution. All methods must be called only
// from inside the Proc's own function (the one passed to Engine.Spawn).
type Proc struct {
	eng   *Engine
	name  string
	id    int
	time  Time
	state procState
	co    *coro // the coroutine running fn
	// pri is the seeded tie-break priority, drawn fresh at every push
	// onto the run queue; 0 (insertion order) unless the engine is seeded.
	pri uint64
	// what the proc is blocked on, for deadlock diagnostics
	waitingOn string
	// waitSeq counts parks; WaitTimeout timers capture it so a timer
	// whose wait already ended (and the proc re-parked) cannot fire.
	waitSeq uint64
}

// Engine owns a set of Procs and executes them in virtual-time order.
type Engine struct {
	procs  []*Proc
	ready  []*Proc // binary min-heap under procLess
	idle   []*coro // coroutines whose Proc has returned, for reuse
	nextID int
	live   int
	now    Time
	tracer Tracer

	// Seeded tie-break state (see seed.go). Zero values = off.
	seeded      bool
	rngState    uint64
	schedBudget int64
	schedDraws  int64
	// Trace digest of every dispatch decision; 0 means "nothing folded
	// in yet" and reads as the FNV offset basis.
	digest    uint64
	ndispatch int64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the engine's current virtual time: the clock of the most
// recently dispatched Proc. It is safe to call between Run invocations.
func (e *Engine) Now() Time { return e.now }

// Spawn creates a Proc named name running fn, starting at virtual time at.
// Spawn may be called before Run or from inside a running Proc; in the
// latter case the child starts no earlier than the parent's current time.
func (e *Engine) Spawn(name string, at Time, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, id: e.nextID, time: at, state: stateRunnable, co: e.coro()}
	p.co.p, p.co.fn = p, fn
	e.nextID++
	e.live++
	e.procs = append(e.procs, p)
	e.push(p)
	e.emit(EvSpawn, at, name, "")
	return p
}

// ErrDeadlock is returned by Run when no Proc is runnable but some are
// still blocked; Procs lists the stuck Procs and what they wait on.
type ErrDeadlock struct {
	Procs []string
}

func (e *ErrDeadlock) Error() string {
	return "sim: deadlock; blocked procs: " + strings.Join(e.Procs, ", ")
}

// Run executes all Procs until every one has finished. It returns an
// *ErrDeadlock if Procs remain blocked with nothing runnable. A panic or
// runtime.Goexit (t.Fatal) inside a Proc comes out of Run on the
// caller's goroutine.
func (e *Engine) Run() error {
	for len(e.ready) > 0 {
		p := e.pop()
		e.dispatch(p)
		p.co.next()
	}
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
	if e.live == 0 {
		return nil
	}
	var stuck []string
	for _, p := range e.procs {
		if p.state == stateWaiting {
			stuck = append(stuck, p.name+" ("+p.waitingOn+")")
		}
	}
	sort.Strings(stuck)
	return &ErrDeadlock{Procs: stuck}
}

// coro is a coroutine (iter.Pull) that runs Proc functions one after
// another: when one returns, it joins the engine's idle list and suspends
// until a Spawn hands it the next. A Spawn thus allocates only its Proc;
// Run stops the idle coroutines before it returns.
type coro struct {
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool // switches back to Run; false once stopped
	p       *Proc
	fn      func(*Proc)
}

// coro takes an idle coroutine, or starts a new one.
func (e *Engine) coro() *coro {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return c
	}
	c := &coro{}
	c.next, c.stop = iter.Pull(func(suspend func(struct{}) bool) {
		c.suspend = suspend
		for {
			p := c.p
			c.fn(p)
			c.p, c.fn = nil, nil
			p.state = stateDone
			e.live--
			e.emit(EvDone, p.time, p.name, "")
			e.idle = append(e.idle, c)
			if !suspend(struct{}{}) {
				return
			}
		}
	})
	return c
}

// dispatch makes p, just popped off the run queue, the running Proc and
// folds the decision into the trace digest.
func (e *Engine) dispatch(p *Proc) {
	p.state = stateRunning
	if p.time > e.now {
		e.now = p.time
	}
	e.ndispatch++
	e.note(p.name, p.time)
	e.emit(EvDispatch, p.time, p.name, "")
}

// MustRun is Run but panics on deadlock; for tests and examples.
func (e *Engine) MustRun() {
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// Name reports the Proc's name, for diagnostics.
func (p *Proc) Name() string { return p.name }

// Now reports the Proc's virtual clock.
func (p *Proc) Now() Time { return p.time }

// reschedule requeues the running Proc and yields, unless it is still the
// earliest runnable Proc, which Run would pick next anyway: then it is
// dispatched again in place, with the same bookkeeping and no switch.
func (p *Proc) reschedule() {
	e := p.eng
	p.requeue()
	if e.ready[0] == p {
		e.dispatch(e.pop())
		return
	}
	p.co.suspend(struct{}{})
}

// Advance moves the Proc's clock forward by d (clamped at zero) and yields
// so that other Procs with earlier clocks can run.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		d = 0
	}
	p.time += d
	p.reschedule()
}

// AdvanceTo moves the Proc's clock to at least t and yields. It never moves
// the clock backwards.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.time {
		p.time = t
	}
	p.reschedule()
}

// Spawn starts a child Proc at the parent's current time.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc {
	return p.eng.Spawn(name, p.time, fn)
}

func (p *Proc) requeue() {
	p.state = stateRunnable
	p.eng.push(p)
}

// push draws the Proc's tie-break priority and sifts it up the run queue.
func (e *Engine) push(p *Proc) {
	p.pri = e.drawPri()
	h := append(e.ready, p)
	i := len(h) - 1
	for i > 0 && procLess(p, h[(i-1)/2]) {
		h[i] = h[(i-1)/2]
		i = (i - 1) / 2
	}
	h[i] = p
	e.ready = h
}

// pop removes and returns the earliest runnable Proc, sifting the last
// entry down from the root.
func (e *Engine) pop() *Proc {
	h := e.ready
	n := len(h) - 1
	top, last := h[0], h[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && procLess(h[c+1], h[c]) {
			c++
		}
		if !procLess(h[c], last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	h[n] = nil
	e.ready = h[:n]
	return top
}

// park blocks the Proc outside the run queue until some other Proc wakes it.
func (p *Proc) park(what string) {
	p.state = stateWaiting
	p.waitSeq++
	p.waitingOn = what
	p.eng.emit(EvBlock, p.time, p.name, what)
	p.co.suspend(struct{}{})
	p.waitingOn = ""
}

// wakeAt makes a parked Proc runnable at time at (never moving its clock
// backwards). Must be called by the currently running Proc.
func (p *Proc) wakeAt(at Time) {
	if p.state != stateWaiting {
		panic("sim: wake of non-waiting proc " + p.name)
	}
	if at > p.time {
		p.time = at
	}
	p.eng.emit(EvWake, p.time, p.name, p.waitingOn)
	p.requeue()
}

// procLess orders the run queue by (time, pri, id); pri is 0 for every
// Proc unless the seeded tie-break policy is armed. ids are unique, so
// this is a total order: which Proc is popped next never depends on the
// heap's layout, only on the key.
func procLess(a, b *Proc) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.id < b.id
}
