package netstack

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"solros/internal/cpu"
	"solros/internal/model"
	"solros/internal/pcie"
	"solros/internal/sim"
)

func twoStacks() (*Network, *Stack, *Stack) {
	fab := pcie.New(1 << 20)
	n := NewNetwork(fab)
	client := n.NewStack("client", cpu.Host, nil)
	server := n.NewStack("server", cpu.Host, nil)
	return n, client, server
}

func TestDialSendRecv(t *testing.T) {
	_, client, server := twoStacks()
	var got []byte
	e := sim.NewEngine()
	e.Spawn("server", 0, func(p *sim.Proc) {
		l, err := server.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		c, ok := l.Accept(p)
		if !ok {
			t.Error("accept failed")
			return
		}
		side := c.Side(server)
		got, _ = side.RecvFull(p, 11)
	})
	e.Spawn("client", 0, func(p *sim.Proc) {
		p.Advance(10 * sim.Microsecond) // let the server listen first
		c, err := client.Dial(p, server, 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Side(client).Send(p, []byte("hello world"))
	})
	e.MustRun()
	if !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("got %q", got)
	}
}

func TestDialRefused(t *testing.T) {
	_, client, server := twoStacks()
	e := sim.NewEngine()
	e.Spawn("client", 0, func(p *sim.Proc) {
		if _, err := client.Dial(p, server, 9999); err != ErrRefused {
			t.Errorf("err = %v, want ErrRefused", err)
		}
	})
	e.MustRun()
}

func TestLargeTransferSegmentedAndIntact(t *testing.T) {
	_, client, server := twoStacks()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got []byte
	e := sim.NewEngine()
	e.Spawn("server", 0, func(p *sim.Proc) {
		l, _ := server.Listen(80)
		c, _ := l.Accept(p)
		got, _ = c.Side(server).RecvFull(p, len(payload))
	})
	e.Spawn("client", 0, func(p *sim.Proc) {
		p.Advance(sim.Microsecond)
		c, err := client.Dial(p, server, 80)
		if err != nil {
			t.Error(err)
			return
		}
		n, err := c.Side(client).Send(p, payload)
		if err != nil || n != len(payload) {
			t.Errorf("send n=%d err=%v", n, err)
		}
	})
	e.MustRun()
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted in flight")
	}
}

func TestFlowControlBoundsBuffering(t *testing.T) {
	// A fast sender against a never-reading receiver must block at the
	// window, not buffer unboundedly.
	_, client, server := twoStacks()
	e := sim.NewEngine()
	var conn *Conn
	e.Spawn("server", 0, func(p *sim.Proc) {
		l, _ := server.Listen(80)
		conn, _ = l.Accept(p)
		// Never read; just give the sender time to fill the window.
		p.Advance(100 * sim.Millisecond)
		if b := conn.Side(server).Buffered(); b > Window {
			t.Errorf("buffered %d exceeds window %d", b, Window)
		}
		// Drain so the sender finishes.
		for total := 0; total < 1<<20; {
			data, err := conn.Side(server).Recv(p, 1<<20)
			if err != nil || len(data) == 0 {
				break
			}
			total += len(data)
		}
	})
	e.Spawn("client", 0, func(p *sim.Proc) {
		p.Advance(sim.Microsecond)
		c, _ := client.Dial(p, server, 80)
		c.Side(client).Send(p, make([]byte, 1<<20))
	})
	e.MustRun()
}

func TestCloseDeliversEOF(t *testing.T) {
	_, client, server := twoStacks()
	e := sim.NewEngine()
	e.Spawn("server", 0, func(p *sim.Proc) {
		l, _ := server.Listen(80)
		c, _ := l.Accept(p)
		data, err := c.Side(server).RecvFull(p, 100)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("short read at EOF: err %v, want io.ErrUnexpectedEOF", err)
		}
		if len(data) != 3 {
			t.Errorf("got %d bytes before EOF, want 3", len(data))
		}
	})
	e.Spawn("client", 0, func(p *sim.Proc) {
		p.Advance(sim.Microsecond)
		c, _ := client.Dial(p, server, 80)
		c.Side(client).Send(p, []byte("eof"))
		c.Side(client).Close(p)
	})
	e.MustRun()
}

// pingPong measures mean round-trip latency for 64 B messages between a
// client and a server whose stack runs on the given core kind, optionally
// behind a PCIe bridge.
func pingPong(t *testing.T, kind cpu.Kind, bridged bool, rounds int) sim.Time {
	t.Helper()
	fab := pcie.New(64 << 20)
	var bridge *pcie.Device
	if bridged {
		bridge = fab.AddPhi("phi0", 0, 1<<20)
	}
	n := NewNetwork(fab)
	client := n.NewStack("client", cpu.Host, nil)
	server := n.NewStack("server", kind, bridge)
	var total sim.Time
	e := sim.NewEngine()
	e.Spawn("server", 0, func(p *sim.Proc) {
		l, _ := server.Listen(80)
		c, _ := l.Accept(p)
		s := c.Side(server)
		for i := 0; i < rounds; i++ {
			msg, err := s.RecvFull(p, 64)
			if err != nil || len(msg) != 64 {
				return
			}
			s.Send(p, msg)
		}
	})
	e.Spawn("client", 0, func(p *sim.Proc) {
		p.Advance(sim.Microsecond)
		c, _ := client.Dial(p, server, 80)
		s := c.Side(client)
		msg := make([]byte, 64)
		for i := 0; i < rounds; i++ {
			start := p.Now()
			s.Send(p, msg)
			s.RecvFull(p, 64)
			total += p.Now() - start
		}
		s.Close(p)
	})
	e.MustRun()
	return total / sim.Time(rounds)
}

func TestPhiStackMuchSlowerThanHost(t *testing.T) {
	// Figure 1b: 64 B ping-pong against a stock Phi endpoint has ~7x the
	// latency of a host endpoint.
	host := pingPong(t, cpu.Host, false, 50)
	phi := pingPong(t, cpu.Phi, true, 50)
	ratio := float64(phi) / float64(host)
	if ratio < 2 {
		t.Fatalf("phi/host latency ratio = %.1f, want >> 1 (paper: ~7x at p99)", ratio)
	}
	t.Logf("64B RTT: host=%v phi=%v (%.1fx)", host, phi, ratio)
}

func hostThroughput(t *testing.T, flows int, perFlow int) float64 {
	t.Helper()
	_, client, server := twoStacks()
	var end sim.Time
	e := sim.NewEngine()
	for fl := 0; fl < flows; fl++ {
		fl := fl
		port := 80 + fl
		e.Spawn("server", 0, func(p *sim.Proc) {
			l, _ := server.Listen(port)
			c, _ := l.Accept(p)
			c.Side(server).RecvFull(p, perFlow)
			if p.Now() > end {
				end = p.Now()
			}
		})
		e.Spawn("client", 0, func(p *sim.Proc) {
			p.Advance(sim.Microsecond)
			c, err := client.Dial(p, server, port)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 1<<20)
			for sent := 0; sent < perFlow; sent += len(buf) {
				c.Side(client).Send(p, buf)
			}
		})
	}
	e.MustRun()
	return float64(flows*perFlow) * 8 / end.Seconds() / 1e9
}

func TestSingleFlowHostThroughputRealistic(t *testing.T) {
	// One flow through one core: a kernel TCP stack sustains a handful
	// of Gb/s per core, nowhere near the 100 Gb/s wire.
	gbps := hostThroughput(t, 1, 32<<20)
	if gbps < 4 || gbps > 101 {
		t.Fatalf("single-flow host throughput = %.1f Gb/s, want 4..101", gbps)
	}
}

func TestMultiFlowAggregateScales(t *testing.T) {
	one := hostThroughput(t, 1, 16<<20)
	four := hostThroughput(t, 4, 16<<20)
	if four < 2.5*one {
		t.Fatalf("4 flows = %.1f Gb/s, want >= 2.5x one flow (%.1f)", four, one)
	}
}

func TestPortInUse(t *testing.T) {
	_, _, server := twoStacks()
	if _, err := server.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Listen(80); err == nil {
		t.Fatal("double listen on one port succeeded")
	}
}

func TestListenerCloseWakesAccept(t *testing.T) {
	_, _, server := twoStacks()
	e := sim.NewEngine()
	l, _ := server.Listen(80)
	e.Spawn("acceptor", 0, func(p *sim.Proc) {
		if _, ok := l.Accept(p); ok {
			t.Error("accept returned a conn after close")
		}
	})
	e.Spawn("closer", 10, func(p *sim.Proc) { l.Close(p) })
	e.MustRun()
}

func TestSegmentCostScalesWithKind(t *testing.T) {
	fab := pcie.New(1 << 20)
	n := NewNetwork(fab)
	h := n.NewStack("h", cpu.Host, nil)
	ph := n.NewStack("p", cpu.Phi, nil)
	e := sim.NewEngine()
	e.Spawn("t", 0, func(p *sim.Proc) {
		start := p.Now()
		h.chargeSegment(p, model.MSS)
		hostCost := p.Now() - start
		start = p.Now()
		ph.chargeSegment(p, model.MSS)
		phiCost := p.Now() - start
		if phiCost <= hostCost*5 {
			t.Errorf("phi segment cost %v not >> host %v", phiCost, hostCost)
		}
	})
	e.MustRun()
}

func TestHalfCloseDrainsBufferedData(t *testing.T) {
	// Data sent before Close must still be readable by the peer; only
	// then does EOF appear.
	_, client, server := twoStacks()
	e := sim.NewEngine()
	e.Spawn("server", 0, func(p *sim.Proc) {
		l, _ := server.Listen(80)
		c, _ := l.Accept(p)
		s := c.Side(server)
		p.Advance(10 * sim.Millisecond) // let sender close first
		got, err := s.RecvFull(p, 1<<20)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("short read at EOF: err %v, want io.ErrUnexpectedEOF", err)
		}
		if len(got) != 100000 {
			t.Errorf("got %d bytes before EOF, want 100000", len(got))
		}
	})
	e.Spawn("client", 0, func(p *sim.Proc) {
		p.Advance(sim.Microsecond)
		c, _ := client.Dial(p, server, 80)
		s := c.Side(client)
		s.Send(p, make([]byte, 100000))
		s.Close(p)
	})
	e.MustRun()
}

func TestSerializedStackQueuesUnderLoad(t *testing.T) {
	// The same ping-pong load has a fatter tail against a serialized
	// stack than a parallel one: the paper's shared-state bottleneck.
	run := func(serialized bool) sim.Time {
		fab := pcie.New(16 << 20)
		n := NewNetwork(fab)
		client := n.NewStack("client", cpu.Host, nil)
		server := n.NewStack("server", cpu.Phi, nil)
		server.Serialized = serialized
		var worst sim.Time
		e := sim.NewEngine()
		for c := 0; c < 8; c++ {
			port := 80 + c
			e.Spawn("server", 0, func(p *sim.Proc) {
				l, _ := server.Listen(port)
				conn, _ := l.Accept(p)
				s := conn.Side(server)
				for r := 0; r < 20; r++ {
					msg, err := s.RecvFull(p, 64)
					if err != nil || len(msg) != 64 {
						return
					}
					s.Send(p, msg)
				}
			})
			e.Spawn("client", 0, func(p *sim.Proc) {
				p.Advance(sim.Microsecond)
				conn, err := client.Dial(p, server, port)
				if err != nil {
					t.Error(err)
					return
				}
				s := conn.Side(client)
				msg := make([]byte, 64)
				for r := 0; r < 20; r++ {
					start := p.Now()
					s.Send(p, msg)
					s.RecvFull(p, 64)
					if rtt := p.Now() - start; rtt > worst {
						worst = rtt
					}
				}
			})
		}
		e.MustRun()
		return worst
	}
	serial, parallel := run(true), run(false)
	if serial <= parallel {
		t.Fatalf("serialized stack worst RTT (%v) should exceed parallel (%v)", serial, parallel)
	}
}
