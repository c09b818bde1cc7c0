package kvstore

import (
	"errors"
	"io"
	"testing"

	"solros/internal/core"
	"solros/internal/sim"
)

// A connection that closes under a pending Get fails the Get with
// io.ErrUnexpectedEOF, whether the reply is missing entirely or cut off
// part way, instead of indexing a status byte that never arrived.
func TestGetFailsWhenConnectionClosesUnderIt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"no reply", nil},
		{"cut reply", []byte{StatusOK, 0, 0}}, // status, then half the value length
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := core.NewMachine(core.Config{Phis: 1})
			m.EnableNetwork()
			m.MustRun(func(p *sim.Proc, m *core.Machine) {
				phi := m.Phis[0]
				if err := phi.Net.Listen(p, testPort); err != nil {
					t.Error(err)
					return
				}
				done := sim.NewWaitGroup("cut")
				done.Add(2)
				p.Spawn("cutter", func(sp *sim.Proc) {
					defer sp.DoneWG(done)
					sock, err := phi.Net.Accept(sp, testPort)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := sock.RecvFull(sp, ReqHdrLen); err != nil {
						t.Error(err)
						return
					}
					if len(tc.reply) > 0 {
						sock.Send(sp, tc.reply)
					}
					sock.Close(sp)
				})
				p.Spawn("client", func(cp *sim.Proc) {
					defer cp.DoneWG(done)
					cp.Advance(50 * sim.Microsecond)
					conn, err := m.ClientStack.Dial(cp, m.HostStack, testPort)
					if err != nil {
						t.Error(err)
						return
					}
					c := NewClient(conn.Side(m.ClientStack))
					if _, _, err := c.Get(cp, "k"); !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Errorf("Get on a closed connection: err %v, want io.ErrUnexpectedEOF", err)
					}
				})
				p.WaitWG(done)
			})
		})
	}
}
