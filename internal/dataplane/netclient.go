package dataplane

import (
	"errors"
	"fmt"
	"io"

	"solros/internal/ninep"
	"solros/internal/pcie"
	"solros/internal/sim"
	"solros/internal/transport"
)

// NetClient is the data-plane network stub (§4.4.1): socket calls become
// RPCs on the connection; stream data travels on a dedicated outbound ring
// (master at the co-processor, pulled by host DMA) and an inbound ring
// (master at the host, pulled by co-processor DMA). A single event
// dispatcher proc demultiplexes inbound events to per-socket queues
// (§4.4.2).
type NetClient struct {
	conn     *Conn
	outbound *transport.Port
	inbound  *transport.Port
	sockets  map[uint64]*Socket
	accepts  map[int]*acceptQueue
	started  bool
}

// RPC exposes the stub's control-RPC connection, for tag-window audits
// (Conn.CheckTags) after churn and detach scenarios.
func (nc *NetClient) RPC() *Conn { return nc.conn }

// Socket is a data-plane connection endpoint.
type Socket struct {
	ID     uint64
	nc     *NetClient
	recvq  [][]byte
	cond   *sim.Cond
	eof    bool
	closed bool
	poller *Poller
}

type acceptQueue struct {
	ready  []*Socket
	cond   *sim.Cond
	closed bool
}

// ErrSocketClosed is returned on operations against a closed socket.
var ErrSocketClosed = errors.New("dataplane: socket closed")

// NewNetClient builds the stub. The data rings must be created with
// NewNetRings so their masters sit on the right sides.
func NewNetClient(conn *Conn, outbound, inbound *transport.Port) *NetClient {
	return &NetClient{
		conn:     conn,
		outbound: outbound,
		inbound:  inbound,
		sockets:  make(map[uint64]*Socket),
		accepts:  make(map[int]*acceptQueue),
	}
}

// NewNetRings builds the paper's ring placement (§4.4.1): outbound master
// at the co-processor (host DMA pulls outgoing data), inbound master at
// the host (co-processor DMA pulls incoming data). It returns the stub's
// ports followed by the proxy's ports (outbound, inbound).
func NewNetRings(f *pcie.Fabric, phi *pcie.Device, opt transport.Options) (stubOut, stubIn, proxyOut, proxyIn *transport.Port) {
	outRing := transport.NewRing(f, phi, opt)
	inRing := transport.NewRing(f, nil, opt)
	return outRing.Port(phi, cpuPhiKind), inRing.Port(phi, cpuPhiKind),
		outRing.Port(nil, cpuHostKind), inRing.Port(nil, cpuHostKind)
}

// Start launches the RPC dispatcher (if not already running) and the
// network event dispatcher.
func (nc *NetClient) Start(p *sim.Proc) {
	if nc.started {
		return
	}
	nc.started = true
	nc.conn.Start(p)
	nc.inbound.EnablePool()
	p.Spawn(nc.conn.Phi.Name+"-net-dispatcher", func(dp *sim.Proc) {
		for {
			raw, ok := nc.inbound.Recv(dp)
			if !ok {
				for _, s := range nc.sockets {
					s.eof = true
					dp.Broadcast(s.cond)
					if s.poller != nil {
						s.poller.notify(dp)
					}
				}
				for _, q := range nc.accepts {
					dp.Broadcast(q.cond)
				}
				return
			}
			kind, id, payload, err := ninep.DecodeFrame(raw)
			if err != nil {
				panic("dataplane: " + err.Error())
			}
			switch kind {
			case ninep.FrameAccept:
				s := nc.newSocket(id)
				port := int(payload[0]) | int(payload[1])<<8
				if q := nc.accepts[port]; q != nil {
					q.ready = append(q.ready, s)
					dp.Signal(q.cond)
				}
				// No listener on this port anymore: drop the event.
			case ninep.FrameData:
				// payload aliases raw, which goes back to the pool below;
				// the socket queue takes its own copy.
				if s := nc.sockets[id]; s != nil {
					s.recvq = append(s.recvq, append([]byte(nil), payload...))
					dp.Signal(s.cond)
					if s.poller != nil {
						s.poller.notify(dp)
					}
				}
			case ninep.FrameEOF:
				if s := nc.sockets[id]; s != nil {
					s.eof = true
					dp.Broadcast(s.cond)
					if s.poller != nil {
						s.poller.notify(dp)
					}
				}
			case ninep.FrameListenClosed:
				for _, q := range nc.accepts {
					q.closed = true
					dp.Broadcast(q.cond)
				}
			}
			nc.inbound.Recycle(raw)
		}
	})
}

func (nc *NetClient) newSocket(id uint64) *Socket {
	s := &Socket{ID: id, nc: nc, cond: sim.NewCond(fmt.Sprintf("sock-%d", id))}
	nc.sockets[id] = s
	return s
}

// Listen joins this co-processor to the shared listening socket on port
// (§4.4.3): multiple co-processors may listen on the same port and the
// control plane shards connections across them.
func (nc *NetClient) Listen(p *sim.Proc, port int) error {
	if _, dup := nc.accepts[port]; dup {
		return fmt.Errorf("dataplane: already listening on %d", port)
	}
	if _, err := nc.conn.Call(p, &ninep.Msg{Type: ninep.Tlisten, Off: int64(port)}); err != nil {
		return err
	}
	nc.accepts[port] = &acceptQueue{cond: sim.NewCond(fmt.Sprintf("accept-%d", port))}
	return nil
}

// Accept blocks for the next connection sharded to this co-processor.
func (nc *NetClient) Accept(p *sim.Proc, port int) (*Socket, error) {
	q, ok := nc.accepts[port]
	if !ok {
		return nil, fmt.Errorf("dataplane: not listening on %d", port)
	}
	for len(q.ready) == 0 {
		if q.closed || nc.inbound.Ring().Closed() {
			return nil, ErrSocketClosed
		}
		p.Wait(q.cond)
	}
	s := q.ready[0]
	q.ready = q.ready[1:]
	return s, nil
}

// Connect dials a remote host by name through the control plane.
func (nc *NetClient) Connect(p *sim.Proc, host string, port int) (*Socket, error) {
	resp, err := nc.conn.Call(p, &ninep.Msg{Type: ninep.Tconnect, Name: host, Off: int64(port)})
	if err != nil {
		return nil, err
	}
	return nc.newSocket(uint64(resp.Addr)), nil
}

// Send writes data on the socket via the outbound ring.
func (s *Socket) Send(p *sim.Proc, data []byte) (int, error) {
	if s.closed {
		return 0, ErrSocketClosed
	}
	const chunk = 60 << 10
	var hdr [ninep.FrameHdrLen]byte
	ninep.PutFrameHeader(hdr[:], ninep.FrameData, s.ID)
	sent := 0
	for sent < len(data) {
		n := len(data) - sent
		if n > chunk {
			n = chunk
		}
		// The ring copies header+payload contiguously during the send, so
		// no per-chunk staging frame is ever built.
		s.nc.outbound.SendVec(p, hdr[:], data[sent:sent+n])
		sent += n
	}
	return sent, nil
}

// Recv returns the next chunk of inbound data (up to max bytes), blocking
// until data or EOF; it returns nil, nil at end of stream.
func (s *Socket) Recv(p *sim.Proc, max int) ([]byte, error) {
	for {
		if len(s.recvq) > 0 {
			data := s.recvq[0]
			if len(data) > max {
				s.recvq[0] = data[max:]
				return data[:max], nil
			}
			s.recvq = s.recvq[1:]
			return data, nil
		}
		if s.eof {
			return nil, nil
		}
		if s.closed {
			return nil, ErrSocketClosed
		}
		p.Wait(s.cond)
	}
}

// RecvFull reads exactly n bytes. If the stream ends first it returns
// what arrived with io.ErrUnexpectedEOF, so callers never index a short
// reply.
func (s *Socket) RecvFull(p *sim.Proc, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		chunk, err := s.Recv(p, n-len(out))
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

// Close tears the connection down. The close travels on the outbound
// ring, not the RPC channel, so it stays ordered behind any data frames
// still queued for this socket.
func (s *Socket) Close(p *sim.Proc) error {
	if s.closed {
		return nil
	}
	s.closed = true
	delete(s.nc.sockets, s.ID)
	s.nc.outbound.Send(p, ninep.EncodeFrame(ninep.FrameClose, s.ID, nil))
	return nil
}

// CloseRings shuts the data rings down (machine teardown).
func (nc *NetClient) CloseRings(p *sim.Proc) {
	nc.outbound.Close(p)
	nc.inbound.Close(p)
}
