package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"syscall"
	"time"

	"solros/internal/core"
	"solros/internal/sim"
	"solros/internal/telemetry"
)

// pass is the outcome of one fixed-size repetition of a workload. Every
// pass of a run uses the same seed, so its model results must repeat
// exactly; only the wall-clock fields vary between passes.
type pass struct {
	setups []time.Duration // wall, one per machine: construction to first timed op
	run    time.Duration   // wall, timed phases summed

	attempted, failed int
	done              int      // completed ops in the timed phases
	units             []unit   // one per machine, for per-op host time
	problems          []string // output-check failures; any makes the run incorrect
	notes             []string // findings worth printing (deadlocks, known defects)

	model model
	l     layers
	sinks []*telemetry.Sink // telemetry of traced machines
}

// unit is one machine's timed phases: their host time and completed ops.
type unit struct {
	wall, cpu time.Duration
	ops       int
}

// model holds the virtual-time results of a pass. They are pure functions
// of the seed.
type model struct {
	payloadBytes int64    // bytes moved for the application (read + written)
	ops          int      // completed ops in the timed phases
	vt           sim.Time // virtual duration of the timed phases
	lat          []sim.Time
	maxKops      float64 // kvserve: ladder knee; closed loops: achieved rate
}

func (m model) gbs() float64  { return float64(m.payloadBytes) / m.vt.Seconds() / 1e9 }
func (m model) kops() float64 { return float64(m.ops) / m.vt.Seconds() / 1e3 }

// pctl is the nearest-rank percentile the repository's serving figure
// uses (sorted[n*p/100]), so the kvserve cross-check can match it exactly.
func pctl(xs []sim.Time, p int) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := len(s) * p / 100
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// digest folds every model result into one comparable string.
func (m model) digest() string {
	buf := make([]byte, 0, 8*len(m.lat))
	for _, l := range m.lat {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(l))
	}
	h := fnv.New64a()
	h.Write(buf) // writes to a hash never fail
	return fmt.Sprintf("%d/%d/%d/%g/%x", m.payloadBytes, m.ops, m.vt, m.maxKops, h.Sum64())
}

func us(t sim.Time) float64 { return float64(t) / 1e3 }

// span accumulates the benchmark's own measurements around calls into one
// layer's public function: the virtual latency of every call and the wall
// time they took together.
type span struct {
	vt   []sim.Time
	wall time.Duration
}

// layers gathers the per-layer counters of a pass, summed over its
// machines, plus the benchmark's spans around layer calls.
type layers struct {
	newMachine, boot []time.Duration
	newMachineAlloc  []uint64

	dispatches int64
	simVT      sim.Time
	simWall    time.Duration

	mallocs, allocBytes uint64 // during timed phases
	gcCycles            uint32

	pcieTxns                         int64
	ringMsgs, ringBytes              int64
	p2p, buffered, proxyHits, prefet int64
	cacheHits, cacheMisses, evicts   int64
	nvmeCmds, doorbells, interrupts  int64
	nvmeRead, nvmeWrite              int64
	flashBusy                        sim.Time
	maxExtents                       int
	kvLog, kvDead                    int64

	spans map[string]*span
}

// time runs f inside a sim proc, records it as one call of the named span,
// and returns the call's virtual latency.
func (l *layers) time(p *sim.Proc, name string, f func() error) (sim.Time, error) {
	if l.spans == nil {
		l.spans = make(map[string]*span)
	}
	s := l.spans[name]
	if s == nil {
		s = &span{}
		l.spans[name] = s
	}
	v0, w0 := p.Now(), time.Now()
	err := f()
	s.wall += time.Since(w0)
	vt := p.Now() - v0
	s.vt = append(s.vt, vt)
	return vt, err
}

// machine wraps the lifecycle every workload repeats: construct, boot,
// run the workload's main proc, and fold the machine's counters into the
// pass. setup is the wall time from construction to the main proc's call
// of startTimed; timed phases are bracketed by startTimed/stopTimed.
type machine struct {
	*core.Machine
	ps        *pass
	built     time.Time
	timedWall time.Time // zero outside a timed phase
	cpu0      time.Duration
	unit      unit
	ms0       runtime.MemStats
}

func newMachine(ps *pass, cfg core.Config, network bool) *machine {
	// Collect the previous machine first, so each build starts from the
	// same heap and peak RSS does not depend on when the collector ran.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	t0 := time.Now()
	m := &machine{Machine: core.NewMachine(cfg), ps: ps, built: t0}
	if network {
		m.EnableNetwork()
	}
	ps.l.newMachine = append(ps.l.newMachine, time.Since(t0))
	runtime.ReadMemStats(&ms)
	ps.l.newMachineAlloc = append(ps.l.newMachineAlloc, ms.TotalAlloc-before)
	return m
}

// run boots the machine and executes main. A sim deadlock is returned,
// not raised: callers count what did not complete as failed.
func (m *machine) run(main func(p *sim.Proc)) error {
	t0 := time.Now()
	err := m.Run(func(p *sim.Proc, _ *core.Machine) {
		m.ps.l.boot = append(m.ps.l.boot, time.Since(t0))
		main(p)
	})
	m.ps.l.simWall += time.Since(t0)
	m.collect()
	return err
}

// startTimed ends the machine's setup and opens a timed phase.
func (m *machine) startTimed() {
	now := time.Now()
	if !m.built.IsZero() {
		m.ps.setups = append(m.ps.setups, now.Sub(m.built))
		m.built = time.Time{}
	}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.timedWall = time.Now()
}

// stopTimed closes the timed phase opened by startTimed, if one is open.
func (m *machine) stopTimed() {
	if m.timedWall.IsZero() {
		return
	}
	m.unit.wall += time.Since(m.timedWall)
	m.unit.cpu += cpuTime() - m.cpu0
	m.timedWall = time.Time{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.ps.l.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.ps.l.allocBytes += ms.TotalAlloc - m.ms0.TotalAlloc
}

// finish records that the machine's timed phases completed ops ops.
func (m *machine) finish(ops int) {
	m.unit.ops = ops
	m.ps.units = append(m.ps.units, m.unit)
	m.ps.run += m.unit.wall
	m.ps.done += ops
}

// collect folds the machine's public counters into the pass.
func (m *machine) collect() {
	l := &m.ps.l
	if tel := m.Telemetry(); tel != nil {
		m.ps.sinks = append(m.ps.sinks, tel)
	}
	l.dispatches += m.Engine.Dispatches()
	l.simVT += m.Engine.Now()
	l.pcieTxns += m.Fabric.Transactions()
	for _, phi := range m.Phis {
		sent, recv, bytes := phi.Conn.RingStats()
		l.ringMsgs += sent + recv
		l.ringBytes += bytes
	}
	if px := m.FSProxy; px != nil {
		p2p, buf, hits := px.PathStats()
		l.p2p += p2p
		l.buffered += buf
		l.proxyHits += hits
		l.prefet += px.Prefetches()
		h, mi, ev := px.Cache.Stats()
		l.cacheHits += h
		l.cacheMisses += mi
		l.evicts += ev
	}
	st := m.SSD.Stats()
	l.nvmeCmds += st.Commands
	l.doorbells += st.Doorbells
	l.interrupts += st.Interrupts
	l.nvmeRead += st.ReadBytes
	l.nvmeWrite += st.WriteBytes
	l.flashBusy += m.SSD.FlashBusy()
	if m.FS != nil {
		// solrosfs sizes its inode table from the disk (one inode per 64
		// blocks); scanning every possible number reads each file once.
		for ino := uint32(0); ino < 1<<16; ino++ {
			if ext, _, ok := m.FS.InodeExtents(ino); ok && len(ext) > l.maxExtents {
				l.maxExtents = len(ext)
			}
		}
	}
}

func (ps *pass) problemf(format string, args ...any) {
	if len(ps.problems) < 8 {
		ps.problems = append(ps.problems, fmt.Sprintf(format, args...))
	}
}

// cpuTime is the CPU time the process has used, user plus system, over all
// its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
