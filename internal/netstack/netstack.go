// Package netstack is a from-scratch reliable stream (TCP-like) stack over
// a simulated 100 GbE network (§6). It provides listen/accept/dial
// sockets, MSS segmentation, flow-control windows, and per-segment
// protocol-processing costs that depend on where the stack runs — the
// heart of the paper's network argument is that the same stack costs ~12x
// more per segment on a lean Phi core than on a host core.
//
// A Stack may be "bridged": its traffic additionally crosses a PCIe link
// to reach the NIC (the stock Xeon Phi runs its TCP endpoint behind such a
// bridge, §6: "we configured a bridge in our server so our client machine
// can directly access a Xeon Phi").
package netstack

import (
	"errors"
	"fmt"
	"io"

	"solros/internal/cpu"
	"solros/internal/model"
	"solros/internal/pcie"
	"solros/internal/sim"
)

// ErrClosed is returned on operations against a closed connection.
var ErrClosed = errors.New("netstack: connection closed")

// ErrRefused is returned by Dial when nothing listens on the port.
var ErrRefused = errors.New("netstack: connection refused")

// Window is the per-connection flow-control window.
const Window = 256 << 10

// Network is the switched fabric all stacks share.
type Network struct {
	fabric *pcie.Fabric
	stacks []*Stack
}

// NewNetwork creates an empty network on the given PCIe fabric (used only
// to charge bridged stacks' PCIe crossings).
func NewNetwork(f *pcie.Fabric) *Network {
	return &Network{fabric: f}
}

// Lookup finds an attached stack by name, or nil.
func (n *Network) Lookup(name string) *Stack {
	for _, s := range n.stacks {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Stack is one endpoint's protocol stack instance.
type Stack struct {
	Name string
	// Kind is the core class executing the stack (host vs Phi).
	Kind cpu.Kind
	// Bridge, when non-nil, is the PCIe device behind which this stack
	// lives; every segment also crosses that device's link.
	Bridge *pcie.Device

	// Serialized marks a stack whose protocol processing funnels
	// through one lock (the stock kernel stack's softirq/socket-lock
	// bottleneck the paper calls out: I/O stacks "maintain a
	// system-wide shared state that becomes a scalability bottleneck").
	Serialized bool

	net       *Network
	ingress   *sim.Resource
	egress    *sim.Resource
	softirq   *sim.Lock
	listeners map[int]*Listener
}

// NewStack attaches a stack to the network. bridge may be nil.
func (n *Network) NewStack(name string, kind cpu.Kind, bridge *pcie.Device) *Stack {
	s := &Stack{
		Name:      name,
		Kind:      kind,
		Bridge:    bridge,
		net:       n,
		ingress:   sim.NewResource(name+"-rx", model.NICBandwidth, 0),
		egress:    sim.NewResource(name+"-tx", model.NICBandwidth, 0),
		softirq:   sim.NewLock(name + "-softirq"),
		listeners: make(map[int]*Listener),
	}
	n.stacks = append(n.stacks, s)
	return s
}

// segment is one in-flight protocol segment.
type segment struct {
	data    []byte
	readyAt sim.Time
	fin     bool
}

// endpoint is one side of a connection.
type endpoint struct {
	stack    *Stack
	conn     *Conn
	recvq    []segment
	buffered int
	cond     *sim.Cond
	peer     *endpoint
	closed   bool
}

// Conn is an established stream connection.
type Conn struct {
	a, b *endpoint
	id   int64
}

var connIDs int64

// Listener accepts inbound connections on a port.
type Listener struct {
	stack   *Stack
	port    int
	backlog []*Conn
	cond    *sim.Cond
	closed  bool
}

// LookupPeer finds another stack on this stack's network by name.
func (s *Stack) LookupPeer(name string) *Stack { return s.net.Lookup(name) }

// Listen binds a listener to the port.
func (s *Stack) Listen(port int) (*Listener, error) {
	if _, busy := s.listeners[port]; busy {
		return nil, fmt.Errorf("netstack: port %d in use on %s", port, s.Name)
	}
	l := &Listener{stack: s, port: port, cond: sim.NewCond(fmt.Sprintf("listen-%s:%d", s.Name, port))}
	s.listeners[port] = l
	return l, nil
}

// Accept blocks for the next inbound connection; ok is false after Close.
func (l *Listener) Accept(p *sim.Proc) (*Conn, bool) {
	for len(l.backlog) == 0 {
		if l.closed {
			return nil, false
		}
		p.Wait(l.cond)
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, true
}

// Pending reports queued, not-yet-accepted connections.
func (l *Listener) Pending() int { return len(l.backlog) }

// Close stops the listener and wakes blocked Accepts.
func (l *Listener) Close(p *sim.Proc) {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.stack.listeners, l.port)
	p.Broadcast(l.cond)
}

// Dial opens a connection from s to dst:port, paying a handshake round
// trip. The returned Conn's local side is s.
func (s *Stack) Dial(p *sim.Proc, dst *Stack, port int) (*Conn, error) {
	l, ok := dst.listeners[port]
	if !ok || l.closed {
		return nil, ErrRefused
	}
	connIDs++
	c := &Conn{id: connIDs}
	c.a = &endpoint{stack: s, conn: c, cond: sim.NewCond(fmt.Sprintf("conn%d-a", c.id))}
	c.b = &endpoint{stack: dst, conn: c, cond: sim.NewCond(fmt.Sprintf("conn%d-b", c.id))}
	c.a.peer = c.b
	c.b.peer = c.a
	// SYN / SYN-ACK: one round trip plus stack costs on both ends.
	s.chargeSegment(p, 0)
	dst.chargeSegment(p, 0)
	p.Advance(2 * model.WireLatency)
	l.backlog = append(l.backlog, c)
	p.Signal(l.cond)
	return c, nil
}

// Side returns the connection endpoint handle for the given stack.
func (c *Conn) Side(s *Stack) *Side {
	switch s {
	case c.a.stack:
		return &Side{ep: c.a}
	case c.b.stack:
		return &Side{ep: c.b}
	}
	panic("netstack: stack not party to connection")
}

// ID returns a unique identifier for the connection.
func (c *Conn) ID() int64 { return c.id }

// Side is one stack's handle on a connection.
type Side struct {
	ep *endpoint
}

// chargeSegment charges the stack's CPU cost for one segment of n payload
// bytes, scaled by the core class the stack runs on.
func (s *Stack) chargeSegment(p *sim.Proc, n int) {
	slow := s.Kind.SystemsSlowdown()
	c := model.TCPSegmentCost * sim.Time(slow)
	c += sim.Time(int64(n) * model.TCPPerByteCost * slow / 1000)
	if s.Serialized {
		p.Acquire(s.softirq)
		p.Advance(c)
		p.Release(s.softirq)
		return
	}
	p.Advance(c)
}

// Send writes data to the connection, segmenting at MSS and blocking on
// the receiver's flow-control window.
func (sd *Side) Send(p *sim.Proc, data []byte) (int, error) {
	ep := sd.ep
	if ep.closed || ep.peer.closed {
		return 0, ErrClosed
	}
	sent := 0
	for sent < len(data) {
		n := len(data) - sent
		if n > model.MSS {
			n = model.MSS
		}
		for ep.peer.buffered+n > Window {
			if ep.peer.closed {
				return sent, ErrClosed
			}
			p.Wait(ep.peer.cond) // window update
		}
		ep.stack.chargeSegment(p, n)
		readyAt := sd.transmit(p, int64(n))
		seg := segment{data: append([]byte(nil), data[sent:sent+n]...), readyAt: readyAt}
		ep.peer.recvq = append(ep.peer.recvq, seg)
		ep.peer.buffered += n
		p.Signal(ep.peer.cond)
		sent += n
	}
	return sent, nil
}

// transmit reserves the wire (sender egress, receiver ingress, bridge
// links on either side) and returns the arrival time.
func (sd *Side) transmit(p *sim.Proc, n int64) sim.Time {
	ep := sd.ep
	latest := p.UseAsync(ep.stack.egress, n)
	if t := p.UseAsync(ep.peer.stack.ingress, n); t > latest {
		latest = t
	}
	fab := ep.stack.net.fabric
	if d := ep.stack.Bridge; d != nil && fab != nil {
		if t := fab.StreamAsync(p, d, nil, n); t > latest {
			latest = t
		}
	}
	if d := ep.peer.stack.Bridge; d != nil && fab != nil {
		if t := fab.StreamAsync(p, nil, d, n); t > latest {
			latest = t
		}
	}
	return latest + model.WireLatency
}

// Recv reads up to max bytes, blocking until data or FIN arrives. It
// returns 0, nil at end of stream.
func (sd *Side) Recv(p *sim.Proc, max int) ([]byte, error) {
	ep := sd.ep
	for {
		if len(ep.recvq) > 0 {
			seg := ep.recvq[0]
			if seg.fin {
				return nil, nil
			}
			p.AdvanceTo(seg.readyAt)
			ep.stack.chargeSegment(p, len(seg.data))
			n := len(seg.data)
			if n > max {
				// Partial consume: split the segment.
				n = max
				ep.recvq[0].data = seg.data[n:]
				seg.data = seg.data[:n]
			} else {
				ep.recvq = ep.recvq[1:]
			}
			ep.buffered -= n
			p.Signal(ep.cond) // window update for sender
			return seg.data, nil
		}
		if ep.closed {
			return nil, ErrClosed
		}
		p.Wait(ep.cond)
	}
}

// RecvFull reads exactly n bytes. If the stream ends first it returns
// what arrived with io.ErrUnexpectedEOF, so callers never index a short
// reply.
func (sd *Side) RecvFull(p *sim.Proc, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		chunk, err := sd.Recv(p, n-len(out))
		if err != nil {
			return out, err
		}
		if len(chunk) == 0 {
			return out, io.ErrUnexpectedEOF
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// Close sends FIN and marks this side closed; the peer's Recv drains
// buffered data, then observes end of stream.
func (sd *Side) Close(p *sim.Proc) {
	ep := sd.ep
	if ep.closed {
		return
	}
	ep.closed = true
	ep.peer.recvq = append(ep.peer.recvq, segment{fin: true, readyAt: p.Now() + model.WireLatency})
	p.Broadcast(ep.peer.cond)
	p.Broadcast(ep.cond)
}

// Buffered reports bytes queued for this side to receive.
func (sd *Side) Buffered() int { return sd.ep.buffered }
