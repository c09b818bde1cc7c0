package transport

import (
	"bytes"
	"runtime"
	"testing"

	"solros/internal/cpu"
	"solros/internal/sim"
)

// TestSendVecMatchesSend pins the vectored send to the joined send: same
// bytes on the wire, same virtual time.
func TestSendVecMatchesSend(t *testing.T) {
	hdr := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	payload := bytes.Repeat([]byte{0xCD}, 777)
	joined := append(append([]byte(nil), hdr...), payload...)

	run := func(send func(pt *Port, p *sim.Proc)) ([]byte, sim.Time) {
		f, phi := newFabric()
		ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64})
		sender := ring.Port(nil, cpu.Host)
		receiver := ring.Port(phi, cpu.Phi)
		var got []byte
		var at sim.Time
		e := sim.NewEngine()
		e.Spawn("sender", 0, func(p *sim.Proc) { send(sender, p) })
		e.Spawn("receiver", 0, func(p *sim.Proc) {
			got, _ = receiver.Recv(p)
			at = p.Now()
		})
		e.MustRun()
		return got, at
	}

	wantMsg, wantAt := run(func(pt *Port, p *sim.Proc) { pt.Send(p, joined) })
	gotMsg, gotAt := run(func(pt *Port, p *sim.Proc) { pt.SendVec(p, hdr, payload) })
	if !bytes.Equal(gotMsg, wantMsg) {
		t.Fatalf("SendVec wire bytes differ from Send")
	}
	if gotAt != wantAt {
		t.Fatalf("SendVec completion time %v != Send %v", gotAt, wantAt)
	}
}

// TestSendBatchOrderAndInvariants drains a batched enqueue stream through
// the ring oracle: order preserved, Check clean throughout, quiesce exact.
func TestSendBatchOrderAndInvariants(t *testing.T) {
	f, phi := newFabric()
	ring := NewRing(f, phi, Options{CapBytes: 8192, Slots: 16})
	sender := ring.Port(nil, cpu.Host)
	receiver := ring.Port(phi, cpu.Phi)

	const n = 100
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte(i)}, 64+i)
	}
	var got [][]byte
	e := sim.NewEngine()
	e.Spawn("sender", 0, func(p *sim.Proc) {
		// Far more than one pass and more than fits: exercises the
		// partial-pass + spaceCond wait loop.
		sender.SendBatch(p, batch)
	})
	e.Spawn("receiver", 0, func(p *sim.Proc) {
		for len(got) < n {
			msg, ok := receiver.Recv(p)
			if !ok {
				break
			}
			got = append(got, msg)
			if err := ring.Check(); err != nil {
				t.Errorf("mid-drain: %v", err)
			}
		}
	})
	e.MustRun()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i, msg := range got {
		if !bytes.Equal(msg, batch[i]) {
			t.Fatalf("message %d out of order or corrupt", i)
		}
	}
	if err := ring.Check(); err != nil {
		t.Fatal(err)
	}
	if sent, received, _ := ring.Stats(); sent != n || received != n {
		t.Fatalf("stats sent=%d received=%d", sent, received)
	}
}

// TestSendBatchCoalescesDoorbells shows the point of the API: in Eager
// mode every TrySend pays its own head/tail transaction pair, while one
// batched pass pays one pair for k messages — so the batch must finish
// strictly earlier in virtual time.
func TestSendBatchCoalescesDoorbells(t *testing.T) {
	const k = 8
	run := func(batched bool) sim.Time {
		f, phi := newFabric()
		ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64, Update: Eager})
		sender := ring.Port(nil, cpu.Host) // shadow side: txns are remote
		msgs := make([][]byte, k)
		for i := range msgs {
			msgs[i] = make([]byte, 64)
		}
		var at sim.Time
		e := sim.NewEngine()
		e.Spawn("sender", 0, func(p *sim.Proc) {
			if batched {
				sender.SendBatch(p, msgs)
			} else {
				for _, m := range msgs {
					sender.Send(p, m)
				}
			}
			at = p.Now()
		})
		e.MustRun()
		return at
	}
	seq, bat := run(false), run(true)
	if bat >= seq {
		t.Fatalf("batched enqueue (%v) not cheaper than sequential (%v)", bat, seq)
	}
}

// TestRecvBatchIntoReusesBacking checks the caller-owned destination path
// never reallocates the vector when the scratch has capacity.
func TestRecvBatchIntoReusesBacking(t *testing.T) {
	f, phi := newFabric()
	ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64})
	sender := ring.Port(phi, cpu.Phi)
	receiver := ring.Port(nil, cpu.Host)

	scratch := make([][]byte, 0, 8)
	e := sim.NewEngine()
	e.Spawn("sender", 0, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			sender.Send(p, []byte{byte(i)})
		}
	})
	e.Spawn("receiver", 0, func(p *sim.Proc) {
		got := 0
		for got < 8 {
			msgs, ok := receiver.RecvBatchInto(p, 8, scratch[:0])
			if !ok {
				break
			}
			if cap(msgs) != cap(scratch) {
				t.Errorf("destination reallocated: cap %d -> %d", cap(scratch), cap(msgs))
			}
			for _, m := range msgs {
				if m[0] != byte(got) {
					t.Errorf("out of order: got %d want %d", m[0], got)
				}
				got++
			}
		}
	})
	e.MustRun()
}

// TestPooledRecvRecycles checks that an enabled pool feeds recycled
// buffers back to the Recv family and that payloads survive recycling of
// the previous buffer.
func TestPooledRecvRecycles(t *testing.T) {
	f, phi := newFabric()
	ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64})
	sender := ring.Port(phi, cpu.Phi)
	receiver := ring.Port(nil, cpu.Host)
	receiver.EnablePool()

	const n = 50
	e := sim.NewEngine()
	e.Spawn("sender", 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sender.Send(p, bytes.Repeat([]byte{byte(i)}, 512))
		}
	})
	e.Spawn("receiver", 0, func(p *sim.Proc) {
		var prev []byte
		for i := 0; i < n; i++ {
			msg, ok := receiver.Recv(p)
			if !ok {
				t.Error("ring closed early")
				return
			}
			if msg[0] != byte(i) || msg[511] != byte(i) {
				t.Errorf("message %d corrupt after recycle", i)
			}
			receiver.Recycle(prev) // nil first time: must be a no-op
			prev = msg
		}
	})
	e.MustRun()
	gets, news := receiver.PoolStats()
	if gets != n {
		t.Fatalf("pool gets = %d, want %d", gets, n)
	}
	// First Get allocates; with one buffer always in flight the second
	// does too; everything after that recycles.
	if news > 2 {
		t.Fatalf("pool allocated %d times, want <= 2", news)
	}
}

// TestViewReceive checks borrowed-view dequeue: correct bytes in place,
// space withheld until Release, oracle clean throughout, and virtual time
// identical to a copying TryRecv.
func TestViewReceive(t *testing.T) {
	f, phi := newFabric()
	// One-slot-sized ring: while a view is held, a second send must block.
	ring := NewRing(f, phi, Options{CapBytes: 1024, Slots: 2})
	sender := ring.Port(phi, cpu.Phi)
	receiver := ring.Port(nil, cpu.Host)

	e := sim.NewEngine()
	e.Spawn("main", 0, func(p *sim.Proc) {
		sender.Send(p, bytes.Repeat([]byte{0xEE}, 1000))
		v, ok := receiver.RecvView(p)
		if !ok {
			t.Error("RecvView failed")
			return
		}
		if len(v.Data) != 1000 || v.Data[0] != 0xEE || v.Data[999] != 0xEE {
			t.Errorf("view bytes wrong: len=%d", len(v.Data))
		}
		if err := ring.Check(); err != nil {
			t.Errorf("view held: %v", err)
		}
		// Bytes are not reclaimable until Release: the ring is full.
		if err := sender.TrySend(p, make([]byte, 1000)); err != ErrWouldBlock {
			t.Errorf("TrySend with view held = %v, want ErrWouldBlock", err)
		}
		v.Release(p)
		v.Release(p) // second Release of a zeroed view: no-op
		if err := sender.TrySend(p, make([]byte, 1000)); err != nil {
			t.Errorf("TrySend after Release = %v", err)
		}
		if _, err := receiver.TryRecv(p); err != nil {
			t.Errorf("TryRecv after Release = %v", err)
		}
		if err := ring.Check(); err != nil {
			t.Error(err)
		}
	})
	e.MustRun()
}

// TestViewTimeMatchesRecv pins the view dequeue to the copying dequeue in
// virtual time: reading in place still pays the full fabric charge.
func TestViewTimeMatchesRecv(t *testing.T) {
	run := func(view bool) sim.Time {
		f, phi := newFabric()
		ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 16})
		sender := ring.Port(phi, cpu.Phi)
		receiver := ring.Port(nil, cpu.Host)
		var at sim.Time
		e := sim.NewEngine()
		e.Spawn("main", 0, func(p *sim.Proc) {
			sender.Send(p, make([]byte, 8192))
			if view {
				v, _ := receiver.RecvView(p)
				v.Release(p)
			} else {
				receiver.Recv(p)
			}
			at = p.Now()
		})
		e.MustRun()
		return at
	}
	copied, viewed := run(false), run(true)
	if copied != viewed {
		t.Fatalf("view dequeue time %v != copy dequeue time %v", viewed, copied)
	}
}

// TestTransportAllocFree is the committed regression gate for the
// transport half of the zero-alloc hot path: with a pooled receive port
// and recycling consumer, a steady-state send -> recv -> recycle cycle
// must not touch the heap. Measured with runtime.MemStats inside the sim
// run (testing.AllocsPerRun cannot re-enter a finished engine), the way
// AllocsPerRun measures: MemStats counts every goroutine's mallocs, so the
// measured loop runs with GOMAXPROCS(1) to keep other goroutines from
// allocating inside the window.
func TestTransportAllocFree(t *testing.T) {
	f, phi := newFabric()
	ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64})
	sender := ring.Port(nil, cpu.Host)
	receiver := ring.Port(phi, cpu.Phi)
	receiver.EnablePool()

	msg := make([]byte, 2048)
	var perOp float64
	e := sim.NewEngine()
	e.Spawn("main", 0, func(p *sim.Proc) {
		for i := 0; i < 64; i++ { // warm the pool and every lazy path
			sender.Send(p, msg)
			b, _ := receiver.Recv(p)
			receiver.Recycle(b)
		}
		const iters = 2000
		var before, after runtime.MemStats
		prev := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			sender.Send(p, msg)
			b, _ := receiver.Recv(p)
			receiver.Recycle(b)
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		perOp = float64(after.Mallocs-before.Mallocs) / iters
	})
	e.MustRun()
	if perOp != 0 {
		t.Fatalf("steady-state send->recv: %v allocs/op, want 0", perOp)
	}
}
