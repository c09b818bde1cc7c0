package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"solros/internal/controlplane"
	"solros/internal/netstack"
	"solros/internal/sim"
)

func TestNetworkEchoThroughSolros(t *testing.T) {
	m := NewMachine(Config{Phis: 1})
	m.EnableNetwork()
	m.MustRun(func(p *sim.Proc, m *Machine) {
		phi := m.Phis[0]
		if err := phi.Net.Listen(p, 7000); err != nil {
			t.Error(err)
			return
		}
		done := sim.NewWaitGroup("echo")
		done.Add(2)
		// Echo server on the co-processor.
		p.Spawn("phi-server", func(sp *sim.Proc) {
			defer sp.DoneWG(done)
			sock, err := phi.Net.Accept(sp, 7000)
			if err != nil {
				t.Error(err)
				return
			}
			msg, err := sock.RecvFull(sp, 11)
			if err != nil {
				t.Error(err)
				return
			}
			sock.Send(sp, msg)
			sock.Close(sp)
		})
		// External client.
		p.Spawn("client", func(cp *sim.Proc) {
			defer cp.DoneWG(done)
			cp.Advance(50 * sim.Microsecond)
			conn, err := m.ClientStack.Dial(cp, m.HostStack, 7000)
			if err != nil {
				t.Error(err)
				return
			}
			side := conn.Side(m.ClientStack)
			side.Send(cp, []byte("hello solros"[:11]))
			echo, err := side.RecvFull(cp, 11)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(echo, []byte("hello solro")) {
				t.Errorf("echo = %q", echo)
			}
			side.Close(cp)
		})
		p.WaitWG(done)
	})
}

// A co-processor socket whose peer closes part way through a message
// returns the bytes that arrived with io.ErrUnexpectedEOF.
func TestSocketRecvFullShortAtEOF(t *testing.T) {
	m := NewMachine(Config{Phis: 1})
	m.EnableNetwork()
	m.MustRun(func(p *sim.Proc, m *Machine) {
		phi := m.Phis[0]
		if err := phi.Net.Listen(p, 7000); err != nil {
			t.Error(err)
			return
		}
		done := sim.NewWaitGroup("short")
		done.Add(2)
		p.Spawn("phi-server", func(sp *sim.Proc) {
			defer sp.DoneWG(done)
			sock, err := phi.Net.Accept(sp, 7000)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := sock.RecvFull(sp, 8)
			if string(got) != "abc" || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("RecvFull(8) after 3 bytes and close = %q, %v; want \"abc\", io.ErrUnexpectedEOF", got, err)
			}
			sock.Close(sp)
		})
		p.Spawn("client", func(cp *sim.Proc) {
			defer cp.DoneWG(done)
			cp.Advance(50 * sim.Microsecond)
			conn, err := m.ClientStack.Dial(cp, m.HostStack, 7000)
			if err != nil {
				t.Error(err)
				return
			}
			side := conn.Side(m.ClientStack)
			side.Send(cp, []byte("abc"))
			side.Close(cp)
		})
		p.WaitWG(done)
	})
}

func TestPhiInitiatedConnect(t *testing.T) {
	m := NewMachine(Config{Phis: 1})
	m.EnableNetwork()
	m.MustRun(func(p *sim.Proc, m *Machine) {
		done := sim.NewWaitGroup("connect")
		done.Add(2)
		// Server on the external client machine.
		p.Spawn("ext-server", func(sp *sim.Proc) {
			defer sp.DoneWG(done)
			l, err := m.ClientStack.Listen(9000)
			if err != nil {
				t.Error(err)
				return
			}
			c, ok := l.Accept(sp)
			if !ok {
				return
			}
			side := c.Side(m.ClientStack)
			data, _ := side.RecvFull(sp, 5)
			if string(data) != "outgo" {
				t.Errorf("server got %q", data)
			}
			side.Send(sp, []byte("ack!!"))
		})
		// Co-processor dials out through the proxy.
		p.Spawn("phi-client", func(cp *sim.Proc) {
			defer cp.DoneWG(done)
			cp.Advance(20 * sim.Microsecond)
			sock, err := m.Phis[0].Net.Connect(cp, "client", 9000)
			if err != nil {
				t.Error(err)
				return
			}
			sock.Send(cp, []byte("outgo"))
			ack, err := sock.RecvFull(cp, 5)
			if err != nil || string(ack) != "ack!!" {
				t.Errorf("ack = %q err=%v", ack, err)
			}
			sock.Close(cp)
		})
		p.WaitWG(done)
	})
}

func TestSharedListeningSocketBalances(t *testing.T) {
	// Four co-processors listen on one port; 16 client connections must
	// be spread round-robin, 4 each (§4.4.3).
	m := NewMachine(Config{Phis: 4})
	m.EnableNetwork()
	const conns = 16
	served := make([]int, 4)
	m.MustRun(func(p *sim.Proc, m *Machine) {
		done := sim.NewWaitGroup("lb")
		for i, phi := range m.Phis {
			if err := phi.Net.Listen(p, 8080); err != nil {
				t.Error(err)
				return
			}
			i, phi := i, phi
			done.Add(1)
			p.Spawn(fmt.Sprintf("server-%d", i), func(sp *sim.Proc) {
				// Under round robin every phi serves exactly its
				// share; a balancer bug shows up as a deadlock
				// (some server never gets its connections).
				defer sp.DoneWG(done)
				for k := 0; k < conns/4; k++ {
					sock, err := phi.Net.Accept(sp, 8080)
					if err != nil {
						return
					}
					req, err := sock.RecvFull(sp, 4)
					if err != nil || len(req) < 4 {
						return
					}
					sock.Send(sp, []byte("resp"))
					served[i]++
					sock.Close(sp)
				}
			})
		}
		done.Add(1)
		p.Spawn("clients", func(cp *sim.Proc) {
			defer cp.DoneWG(done)
			cp.Advance(100 * sim.Microsecond)
			for k := 0; k < conns; k++ {
				conn, err := m.ClientStack.Dial(cp, m.HostStack, 8080)
				if err != nil {
					t.Error(err)
					return
				}
				side := conn.Side(m.ClientStack)
				side.Send(cp, []byte("ping"))
				side.RecvFull(cp, 4)
				side.Close(cp)
			}
		})
		p.WaitWG(done)
	})
	for i, n := range served {
		if n != conns/4 {
			t.Fatalf("phi%d served %d connections, want %d (round robin); all=%v", i, n, conns/4, served)
		}
	}
}

func TestBulkDataPhiToClient(t *testing.T) {
	// A co-processor streams 4 MB to the external client through the
	// outbound ring and host proxy; bytes must arrive intact.
	m := NewMachine(Config{Phis: 1})
	m.EnableNetwork()
	const total = 4 << 20
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	m.MustRun(func(p *sim.Proc, m *Machine) {
		done := sim.NewWaitGroup("bulk")
		done.Add(2)
		p.Spawn("ext-server", func(sp *sim.Proc) {
			defer sp.DoneWG(done)
			l, _ := m.ClientStack.Listen(9100)
			c, ok := l.Accept(sp)
			if !ok {
				return
			}
			got, err := c.Side(m.ClientStack).RecvFull(sp, total)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, payload) {
				t.Error("bulk payload corrupted through proxy path")
			}
		})
		p.Spawn("phi-sender", func(cp *sim.Proc) {
			defer cp.DoneWG(done)
			cp.Advance(20 * sim.Microsecond)
			sock, err := m.Phis[0].Net.Connect(cp, "client", 9100)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sock.Send(cp, payload); err != nil {
				t.Error(err)
			}
			sock.Close(cp)
		})
		p.WaitWG(done)
	})
}

func TestContentBasedBalancingShardsByKey(t *testing.T) {
	// With a content-based rule, connections carrying the same key must
	// land on the same co-processor regardless of arrival order
	// (§4.4.3's key/value-store forwarding example).
	m := NewMachine(Config{Phis: 4})
	m.EnableNetwork()
	keyToPhi := map[byte]int{}
	m.MustRun(func(p *sim.Proc, m *Machine) {
		m.TCPProxy.Balance = &controlplane.ContentBalancer{
			Key: func(first []byte) uint32 { return uint32(first[0]) },
		}
		done := sim.NewWaitGroup("cb")
		for i, phi := range m.Phis {
			i, phi := i, phi
			if err := phi.Net.Listen(p, 8081); err != nil {
				t.Error(err)
				return
			}
			done.Add(1)
			p.Spawn(fmt.Sprintf("server-%d", i), func(sp *sim.Proc) {
				defer sp.DoneWG(done)
				for {
					sock, err := phi.Net.Accept(sp, 8081)
					if err != nil {
						return
					}
					req, err := sock.RecvFull(sp, 8)
					if err != nil || len(req) != 8 {
						return
					}
					if prev, seen := keyToPhi[req[0]]; seen && prev != i {
						t.Errorf("key %d served by phi%d and phi%d", req[0], prev, i)
					}
					keyToPhi[req[0]] = i
					sock.Send(sp, []byte("ok"))
					sock.Close(sp)
				}
			})
		}
		done.Add(1)
		p.Spawn("clients", func(cp *sim.Proc) {
			defer cp.DoneWG(done)
			cp.Advance(100 * sim.Microsecond)
			// 6 keys, 3 connections each, interleaved.
			for r := 0; r < 3; r++ {
				for key := byte(0); key < 6; key++ {
					conn, err := m.ClientStack.Dial(cp, m.HostStack, 8081)
					if err != nil {
						t.Error(err)
						return
					}
					side := conn.Side(m.ClientStack)
					req := make([]byte, 8)
					req[0] = key
					side.Send(cp, req)
					side.RecvFull(cp, 2)
					side.Close(cp)
				}
			}
			m.TCPProxy.Stop(cp)
		})
		p.WaitWG(done)
	})
	if len(keyToPhi) != 6 {
		t.Fatalf("saw %d keys, want 6", len(keyToPhi))
	}
}

func TestPollerMultiplexesSockets(t *testing.T) {
	// One server proc serves many connections through a Poller instead
	// of a proc per socket — the event-dispatcher architecture's payoff.
	m := NewMachine(Config{Phis: 1})
	m.EnableNetwork()
	const conns = 6
	served := 0
	m.MustRun(func(p *sim.Proc, m *Machine) {
		phi := m.Phis[0]
		if err := phi.Net.Listen(p, 8200); err != nil {
			t.Error(err)
			return
		}
		done := sim.NewWaitGroup("poller")
		done.Add(2)
		p.Spawn("poll-server", func(sp *sim.Proc) {
			defer sp.DoneWG(done)
			poller := phi.Net.NewPoller()
			// Accept all connections first, watching each.
			for c := 0; c < conns; c++ {
				sock, err := phi.Net.Accept(sp, 8200)
				if err != nil {
					return
				}
				poller.Watch(sock)
			}
			// Serve one request per connection, in readiness order.
			for served < conns {
				ready := poller.Wait(sp)
				if ready == nil {
					return
				}
				for _, sock := range ready {
					req, err := sock.Recv(sp, 64)
					if err != nil || len(req) == 0 {
						poller.Unwatch(sock)
						continue
					}
					sock.Send(sp, []byte("pong"))
					served++
					poller.Unwatch(sock)
				}
			}
		})
		p.Spawn("clients", func(cp *sim.Proc) {
			defer cp.DoneWG(done)
			cp.Advance(100 * sim.Microsecond)
			sides := make([]*netstack.Side, conns)
			for c := 0; c < conns; c++ {
				conn, err := m.ClientStack.Dial(cp, m.HostStack, 8200)
				if err != nil {
					t.Error(err)
					return
				}
				sides[c] = conn.Side(m.ClientStack)
			}
			// Send in reverse order to exercise readiness ordering.
			for c := conns - 1; c >= 0; c-- {
				sides[c].Send(cp, []byte("ping"))
				cp.Advance(20 * sim.Microsecond)
			}
			for c := 0; c < conns; c++ {
				resp, err := sides[c].RecvFull(cp, 4)
				if err != nil || string(resp) != "pong" {
					t.Errorf("conn %d: resp=%q err=%v", c, resp, err)
				}
				sides[c].Close(cp)
			}
		})
		p.WaitWG(done)
	})
	if served != conns {
		t.Fatalf("served %d, want %d", served, conns)
	}
}

func TestEventDispatcherNotABottleneckAt61Connections(t *testing.T) {
	// §4.4.2: "A potential problem is that the single-thread event
	// dispatcher can be a bottleneck. However, we have not observed
	// such cases even in the most demanding workload (i.e., 64-byte
	// ping pong) with the largest number of hardware threads." Run 61
	// concurrent ping-pong connections through one dispatcher and
	// check per-connection latency stays within a small factor of the
	// 16-connection case.
	perConnRTT := func(conns int) sim.Time {
		m := NewMachine(Config{Phis: 1})
		m.EnableNetwork()
		var total sim.Time
		var n int
		m.MustRun(func(p *sim.Proc, m *Machine) {
			phi := m.Phis[0]
			phi.Net.Listen(p, 8300)
			done := sim.NewWaitGroup("pp")
			done.Add(2 * conns)
			for c := 0; c < conns; c++ {
				p.Spawn("srv", func(sp *sim.Proc) {
					defer sp.DoneWG(done)
					sock, err := phi.Net.Accept(sp, 8300)
					if err != nil {
						return
					}
					for r := 0; r < 10; r++ {
						msg, err := sock.RecvFull(sp, 64)
						if err != nil || len(msg) != 64 {
							return
						}
						sock.Send(sp, msg)
					}
				})
				p.Spawn("cli", func(cp *sim.Proc) {
					defer cp.DoneWG(done)
					cp.Advance(100 * sim.Microsecond)
					conn, err := m.ClientStack.Dial(cp, m.HostStack, 8300)
					if err != nil {
						return
					}
					side := conn.Side(m.ClientStack)
					msg := make([]byte, 64)
					for r := 0; r < 10; r++ {
						start := cp.Now()
						side.Send(cp, msg)
						side.RecvFull(cp, 64)
						total += cp.Now() - start
						n++
					}
					side.Close(cp)
				})
			}
			p.WaitWG(done)
		})
		return total / sim.Time(n)
	}
	small := perConnRTT(16)
	big := perConnRTT(61)
	if big > 4*small {
		t.Fatalf("dispatcher bottleneck: mean RTT %v at 61 conns vs %v at 16", big, small)
	}
	t.Logf("mean 64B RTT: 16 conns %v, 61 conns %v", small, big)
}

func TestDetachNetShardsToSiblings(t *testing.T) {
	// Graceful degradation on a co-processor crash: DetachNet drops the
	// victim from the shared listener, so every later connection shards to
	// the surviving sibling and the victim's pending Accept wakes with an
	// error instead of blocking forever.
	m := NewMachine(Config{Phis: 2})
	m.EnableNetwork()
	const conns = 6
	served := 0
	victimWoke := false
	m.MustRun(func(p *sim.Proc, m *Machine) {
		for _, phi := range m.Phis {
			if err := phi.Net.Listen(p, 8300); err != nil {
				t.Error(err)
				return
			}
		}
		done := sim.NewWaitGroup("detach")
		done.Add(3)
		p.Spawn("victim-server", func(sp *sim.Proc) {
			defer sp.DoneWG(done)
			if _, err := m.Phis[1].Net.Accept(sp, 8300); err != nil {
				victimWoke = true
			}
		})
		p.Spawn("survivor-server", func(sp *sim.Proc) {
			defer sp.DoneWG(done)
			for k := 0; k < conns; k++ {
				sock, err := m.Phis[0].Net.Accept(sp, 8300)
				if err != nil {
					return
				}
				req, err := sock.RecvFull(sp, 4)
				if err != nil || len(req) != 4 {
					return
				}
				sock.Send(sp, []byte("resp"))
				served++
				sock.Close(sp)
			}
		})
		p.Spawn("clients", func(cp *sim.Proc) {
			defer cp.DoneWG(done)
			cp.Advance(50 * sim.Microsecond)
			m.TCPProxy.DetachNet(cp, m.Phis[1].Dev)
			for k := 0; k < conns; k++ {
				conn, err := m.ClientStack.Dial(cp, m.HostStack, 8300)
				if err != nil {
					t.Error(err)
					return
				}
				side := conn.Side(m.ClientStack)
				side.Send(cp, []byte("ping"))
				side.RecvFull(cp, 4)
				side.Close(cp)
			}
		})
		p.WaitWG(done)
	})
	if served != conns {
		t.Fatalf("survivor served %d connections, want all %d", served, conns)
	}
	if !victimWoke {
		t.Fatal("detached co-processor's pending Accept never woke with an error")
	}
	if n := m.TCPProxy.Detaches(); n != 1 {
		t.Fatalf("Detaches() = %d, want 1", n)
	}
}
