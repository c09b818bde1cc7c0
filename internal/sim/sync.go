package sim

// This file provides blocking coordination primitives in virtual time:
// condition variables, mutexes, wait groups, and channels. They mirror the
// semantics of their sync/chan counterparts but block in simulated rather
// than wall-clock time.

// Cond is a virtual-time condition variable. Unlike sync.Cond it has no
// associated lock: because only one Proc runs at a time, state guarded by a
// Cond cannot race, only interleave at yield points.
type Cond struct {
	Name    string
	waiters []*Proc
}

// NewCond returns a condition variable named for diagnostics.
func NewCond(name string) *Cond { return &Cond{Name: name} }

// Wait parks the calling Proc until another Proc calls Signal or Broadcast.
// As with sync.Cond, callers must re-check their predicate on wakeup.
func (p *Proc) Wait(c *Cond) {
	c.waiters = append(c.waiters, p)
	p.park(c.Name)
}

// WaitTimeout parks the calling Proc on c for at most d of virtual time and
// reports whether the wait ended by timeout rather than Signal/Broadcast.
// As with Wait, callers must re-check their predicate on a false return; a
// true return means nobody signalled within d and the Proc's clock now sits
// at the deadline. d <= 0 degrades to a plain Wait.
//
// The deadline is a one-shot timer Proc ordered by the engine's (time, id)
// heap like any other Proc, so runs with timeouts remain deterministic. A
// timer whose wait already ended — even if the Proc immediately re-parked
// on the same Cond — is disarmed by the park generation counter.
func (p *Proc) WaitTimeout(c *Cond, d Time) (timedOut bool) {
	if d <= 0 {
		p.Wait(c)
		return false
	}
	seq := p.waitSeq + 1 // the generation the upcoming park will have
	fired := false
	p.eng.Spawn("timeout:"+c.Name, p.time+d, func(tp *Proc) {
		if p.state != stateWaiting || p.waitSeq != seq {
			return // the wait already ended; stale timer
		}
		for i, w := range c.waiters {
			if w == p {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				fired = true
				p.wakeAt(tp.time)
				return
			}
		}
	})
	p.Wait(c)
	return fired
}

// Signal wakes the longest-waiting Proc, if any, at the caller's current
// time. It reports whether a Proc was woken.
func (p *Proc) Signal(c *Cond) bool {
	if len(c.waiters) == 0 {
		return false
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	w.wakeAt(p.time)
	return true
}

// Broadcast wakes every waiting Proc at the caller's current time.
func (p *Proc) Broadcast(c *Cond) {
	for _, w := range c.waiters {
		w.wakeAt(p.time)
	}
	c.waiters = c.waiters[:0]
}

// Waiters reports how many Procs are parked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Lock is a virtual-time mutex with FCFS handoff.
type Lock struct {
	held   bool
	queue  Cond
	name   string
	holder *Proc
}

// NewLock returns a named virtual-time mutex.
func NewLock(name string) *Lock {
	return &Lock{name: name, queue: Cond{Name: "lock:" + name}}
}

// Held reports whether some Proc currently holds the lock.
func (l *Lock) Held() bool { return l.held }

// Acquire blocks the Proc until the lock is free, then takes it.
func (p *Proc) Acquire(l *Lock) {
	for l.held {
		p.Wait(&l.queue)
	}
	l.held = true
	l.holder = p
}

// Release frees the lock and wakes one waiter. It panics if the caller does
// not hold the lock.
func (p *Proc) Release(l *Lock) {
	if !l.held || l.holder != p {
		panic("sim: release of lock " + l.name + " not held by " + p.name)
	}
	l.held = false
	l.holder = nil
	p.Signal(&l.queue)
}

// WaitGroup counts outstanding work in virtual time.
type WaitGroup struct {
	n    int
	cond Cond
}

// NewWaitGroup returns a wait group named for diagnostics.
func NewWaitGroup(name string) *WaitGroup {
	return &WaitGroup{cond: Cond{Name: "wg:" + name}}
}

// Add adjusts the counter. It may be called from any Proc.
func (wg *WaitGroup) Add(delta int) { wg.n += delta }

// DoneWG decrements the group and wakes waiters when it reaches zero.
func (p *Proc) DoneWG(wg *WaitGroup) {
	wg.n--
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		p.Broadcast(&wg.cond)
	}
}

// WaitWG blocks until the group's counter reaches zero.
func (p *Proc) WaitWG(wg *WaitGroup) {
	for wg.n > 0 {
		p.Wait(&wg.cond)
	}
}

// Chan is a virtual-time channel of arbitrary values with a fixed capacity.
// Capacity zero is not supported (every hardware queue we model has depth);
// use capacity one for rendezvous-like behaviour.
type Chan struct {
	name     string
	buf      []any
	capacity int
	sendq    Cond
	recvq    Cond
	closed   bool
}

// NewChan returns a channel with the given capacity (must be >= 1).
func NewChan(name string, capacity int) *Chan {
	if capacity < 1 {
		panic("sim: NewChan capacity must be >= 1")
	}
	return &Chan{
		name:     name,
		capacity: capacity,
		sendq:    Cond{Name: "send:" + name},
		recvq:    Cond{Name: "recv:" + name},
	}
}

// Len reports the number of buffered values.
func (c *Chan) Len() int { return len(c.buf) }

// Cap reports the channel capacity.
func (c *Chan) Cap() int { return c.capacity }

// Send enqueues v, blocking while the channel is full. Sending on a closed
// channel panics, as with native channels.
func (p *Proc) Send(c *Chan, v any) {
	for !p.TrySend(c, v) {
		if c.closed {
			panic("sim: send on closed chan " + c.name)
		}
		p.Wait(&c.sendq)
	}
}

// TrySend enqueues v without blocking; it reports false if the channel is
// full or closed.
func (p *Proc) TrySend(c *Chan, v any) bool {
	if c.closed || len(c.buf) >= c.capacity {
		return false
	}
	c.buf = append(c.buf, v)
	p.Signal(&c.recvq)
	return true
}

// Recv dequeues a value, blocking while the channel is empty. The second
// result is false if the channel is closed and drained.
func (p *Proc) Recv(c *Chan) (any, bool) {
	for len(c.buf) == 0 {
		if c.closed {
			return nil, false
		}
		p.Wait(&c.recvq)
	}
	return p.TryRecv(c)
}

// TryRecv dequeues without blocking; ok is false if the channel is empty.
func (p *Proc) TryRecv(c *Chan) (v any, ok bool) {
	if len(c.buf) == 0 {
		return nil, false
	}
	v = c.buf[0]
	copy(c.buf, c.buf[1:])
	c.buf[len(c.buf)-1] = nil
	c.buf = c.buf[:len(c.buf)-1]
	p.Signal(&c.sendq)
	return v, true
}

// Close marks the channel closed and wakes all blocked receivers.
func (p *Proc) Close(c *Chan) {
	if c.closed {
		panic("sim: close of closed chan " + c.name)
	}
	c.closed = true
	p.Broadcast(&c.recvq)
	p.Broadcast(&c.sendq)
}

// Closed reports whether the channel has been closed.
func (c *Chan) Closed() bool { return c.closed }
