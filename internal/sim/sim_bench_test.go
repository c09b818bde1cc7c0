package sim

import "testing"

func BenchmarkAdvance(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	e.MustRun()
}

func BenchmarkContextSwitchTwoProcs(b *testing.B) {
	e := NewEngine()
	for k := 0; k < 2; k++ {
		e.Spawn("p", 0, func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Advance(1)
			}
		})
	}
	e.MustRun()
}

func BenchmarkResourceUse(b *testing.B) {
	e := NewEngine()
	r := NewResource("r", 1<<30, 0)
	e.Spawn("p", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Use(r, 64)
		}
	})
	e.MustRun()
}

func BenchmarkChanSendRecv(b *testing.B) {
	e := NewEngine()
	c := NewChan("c", 64)
	e.Spawn("producer", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Send(c, i)
		}
		p.Close(c)
	})
	e.Spawn("consumer", 0, func(p *Proc) {
		for {
			if _, ok := p.Recv(c); !ok {
				return
			}
		}
	})
	e.MustRun()
}

// BenchmarkContextSwitchManyProcs keeps 64 Procs runnable at staggered
// clocks. Every Advance lands the Proc behind the other 63, so each
// dispatch is a real switch plus a run-queue pop and push at depth 6.
func BenchmarkContextSwitchManyProcs(b *testing.B) {
	const procs = 64
	e := NewEngine()
	for k := 0; k < procs; k++ {
		e.Spawn("p", Time(k), func(p *Proc) {
			for i := 0; i < b.N/procs; i++ {
				p.Advance(procs)
			}
		})
	}
	e.MustRun()
}

// BenchmarkSpawn spawns a short-lived child per op and lets it run to
// completion, so it measures Spawn's allocations and a Proc's lifetime.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("parent", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Spawn("child", func(*Proc) {})
			p.Advance(1)
		}
	})
	e.MustRun()
}
