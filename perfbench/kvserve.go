package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"solros/internal/apps/kvstore"
	"solros/internal/core"
	"solros/internal/sim"
	"solros/internal/workload"
)

// kvserve: fig-serve's open-loop traffic on two Phis with one shard each,
// served over the TCP proxy. Latency counts from the scheduled arrival;
// the generator runs in virtual time, so it is never late.
const (
	kvPort          = 7400
	kvValBytes      = 256
	kvConnsPerShard = 4
	kvBaseRate      = 40e3
	kvLimit         = sim.Millisecond
	// kvGrace is how long, after the last arrival, a run with a failed
	// shard waits before closing the connections its clients wait on.
	kvGrace = 100 * sim.Millisecond
	// The base phase is kvBaseMachines runs of kvBaseOps arrivals (0.375 s
	// of virtual traffic each), each on its own sub-seed: how the tail of
	// one run falls varies with the seed however long it runs, so the
	// pooled latency of several runs is what holds still.
	kvBaseMachines = 16
	kvBaseOps      = 15000
	// kvSoakOps is 3 s of virtual traffic at the base rate, long enough
	// for the shard logs to reach solrosfs's extent limit (at about 1.9 s).
	kvSoakOps = 120000
	// kvStepOps is the length of each ladder step.
	kvStepOps = 10000
	// The cross-check geometry is fig-serve's 40 k/s point as gated in
	// BENCH_serve.json.
	kvRefOps  = 2000
	kvRefSeed = 42
	kvRefKops = 40.274
	kvRefP99  = 466.719
)

// kvLadder is the fixed ladder of offered rates (req/s) for model_max_kops.
var kvLadder = []float64{36e3, 40e3, 42e3, 44e3, 46e3, 48e3, 52e3}

// kvTenants: a read-mostly frontend with 3/4 of the load and an
// update-heavy batch tenant with the rest.
var kvTenants = []workload.Tenant{
	{Name: "frontend", Mix: workload.MixFor('B'), Keys: 512, Share: 3},
	{Name: "batch", Mix: workload.MixFor('A'), Keys: 128, Share: 1},
}

func kvConfig() core.Config { return core.Config{Phis: 2} }

// kvStep is one open-loop run at one offered rate on a fresh machine.
type kvStep struct {
	rate      float64
	n         int
	arrival   []sim.Time
	done      []sim.Time // 0 = never completed
	completed int
	lat       []sim.Time // completed ops, in op order
	payload   int64
	vt        sim.Time // first arrival to last completion
	stuck     error    // sim deadlock, if any
	serverErr []string
	panics    int // client calls that panicked (see guard)
}

// guard calls f, turning a panic into an error. kvstore.Client reads a
// reply's status byte without checking for end of stream, so a request
// whose connection closes under it panics with an index out of range.
// The benchmark counts that op as failed and reports how often it
// happened.
func (s *kvStep) guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics++
			err = fmt.Errorf("kvstore client panicked: %v", r)
		}
	}()
	return f()
}

func (s *kvStep) kops() float64 {
	if s.vt <= 0 {
		return 0
	}
	return float64(s.completed) / s.vt.Seconds() / 1e3
}

// backlogGrew reports whether the queue grew over the step: requests
// arriving in its last quarter waited on average more than twice as long
// as those arriving in its second quarter. (The first quarter is skipped:
// the caches start empty.) A stable queue keeps its mean wait; an
// overloaded one adds wait in proportion to time.
func (s *kvStep) backlogGrew() bool {
	mean := func(lo, hi int) float64 {
		var sum sim.Time
		n := 0
		for i := lo; i < hi; i++ {
			if s.done[i] != 0 {
				sum += s.done[i] - s.arrival[i]
				n++
			}
		}
		return float64(sum) / float64(max(n, 1))
	}
	q := s.n / 4
	return mean(3*q, s.n) > 2*mean(q, 2*q)
}

// kvVal is the value PUT by op idx (idx 0 is the preload): the op index
// followed by bytes derived from the key, the index and the seed, so a
// GET shows both which write it observed and whether the bytes survived.
func kvVal(seed int64, key string, idx uint64) []byte {
	h := fnv.New64a()
	h.Write([]byte(key))
	v := pattern(int64(h.Sum64()^idx*0x9e3779b97f4a7c15)^seed, kvValBytes)
	binary.LittleEndian.PutUint64(v, idx)
	return v
}

// kvModel checks GETs against the acknowledged PUTs. A GET may return any
// write not superseded before it was sent: with PUT w acknowledged before
// the GET started, a returned PUT v acknowledged before w was issued is
// stale.
type kvModel struct {
	seed  int64
	puts  map[uint64]*kvPut
	floor map[string]sim.Time // latest issue time among acknowledged PUTs
}

type kvPut struct {
	key           string
	issued, acked sim.Time // acked < 0 while pending
}

func (km *kvModel) check(key string, val []byte, floor sim.Time, hasFloor bool) string {
	if len(val) != kvValBytes {
		return fmt.Sprintf("GET %s: %d-byte value", key, len(val))
	}
	idx := binary.LittleEndian.Uint64(val)
	if !bytes.Equal(val, kvVal(km.seed, key, idx)) {
		return fmt.Sprintf("GET %s: value bytes do not match write %d", key, idx)
	}
	if idx == 0 {
		if hasFloor {
			return fmt.Sprintf("GET %s: returned the preload after a later PUT was acknowledged", key)
		}
		return ""
	}
	put := km.puts[idx]
	if put == nil || put.key != key {
		return fmt.Sprintf("GET %s: returned write %d, which never targeted it", key, idx)
	}
	if hasFloor && put.acked >= 0 && floor > put.acked {
		return fmt.Sprintf("GET %s: returned write %d, superseded before the GET was sent", key, idx)
	}
	return ""
}

type kvQueued struct {
	key     string
	write   bool
	arrival sim.Time
	idx     int
}

// kvRun drives one machine at one offered rate: preload every key, then
// dispatch n Poisson arrivals onto per-shard queues served by pooled
// client connections. It mirrors fig-serve's driver, so at fig-serve's
// geometry it reproduces BENCH_serve.json. A shard whose log fails stops
// serving; the run then ends kvGrace after the last arrival, with every
// op that did not complete counted as failed.
func kvRun(ps *pass, cfg core.Config, seed int64, rate float64, n int) *kvStep {
	m := newMachine(ps, cfg, true)
	phis := len(m.Phis)
	st := &kvStep{rate: rate, n: n, arrival: make([]sim.Time, n), done: make([]sim.Time, n)}
	km := &kvModel{seed: seed, puts: make(map[uint64]*kvPut), floor: make(map[string]sim.Time)}
	shards := make([]*kvstore.Shard, phis)
	var first, last sim.Time
	dispatchDone, aborted := false, false
	ps.attempted += n
	err := m.run(func(p *sim.Proc) {
		m.TCPProxy.Balance = kvstore.Balancer()
		serversDone := sim.NewWaitGroup("kv-servers")
		for i, phi := range m.Phis {
			if err := phi.Net.Listen(p, kvPort); err != nil {
				ps.problemf("listen: %v", err)
				return
			}
			shards[i] = kvstore.NewShard(m.Machine, i, kvstore.Options{})
			if err := shards[i].Open(p); err != nil {
				ps.problemf("shard open: %v", err)
				return
			}
			sv := kvstore.NewServer(shards[i], phi.Net, kvPort)
			serversDone.Add(1)
			p.Spawn(fmt.Sprintf("kv-server-%d", i), func(sp *sim.Proc) {
				defer sp.DoneWG(serversDone)
				err := sv.Run(sp)
				if err == nil {
					return
				}
				st.serverErr = append(st.serverErr,
					fmt.Sprintf("shard %d stopped at %.3f s virtual after %d requests: %v",
						sv.Shard.ID, sp.Now().Seconds(), sv.Served(), err))
				// The shard's clients now wait for replies that never
				// come: the sim deadlocks, or spins forever in a surviving
				// server's poll loop. Once every arrival is dispatched and
				// the other shard has had kvGrace to drain, close the
				// proxied connections so the waiting ops fail.
				for !dispatchDone {
					sp.Advance(sim.Millisecond)
				}
				sp.Advance(kvGrace)
				if !aborted {
					aborted = true
					m.TCPProxy.Stop(sp)
				}
			})
		}

		g := workload.NewMultiGenerator(seed, kvTenants)
		bindKey := make([]string, phis)
		for t := range kvTenants {
			for k := 0; k < kvTenants[t].Keys; k++ {
				key := workload.KeyName(t, k)
				sh := kvstore.OwnerShard(key, phis)
				if err := shards[sh].Put(p, key, kvVal(seed, key, 0)); err != nil {
					ps.problemf("preload %s: %v", key, err)
					return
				}
				if bindKey[sh] == "" {
					bindKey[sh] = key
				}
			}
		}

		ops := g.Ops(n)
		gaps := workload.Arrivals(seed+1, rate, n)
		queues := make([][]kvQueued, phis)
		conds := make([]*sim.Cond, phis)
		for i := range conds {
			conds[i] = sim.NewCond(fmt.Sprintf("kv-q-%d", i))
		}
		m.startTimed()

		p.Spawn("kv-dispatch", func(dp *sim.Proc) {
			t := dp.Now()
			for i, op := range ops {
				t += sim.Time(gaps[i])
				dp.AdvanceTo(t)
				key := workload.KeyName(op.Tenant, op.Key)
				sh := kvstore.OwnerShard(key, phis)
				queues[sh] = append(queues[sh], kvQueued{key: key, write: op.Kind != workload.OpRead, arrival: t, idx: i})
				st.arrival[i] = t
				dp.Signal(conds[sh])
				if i == 0 {
					first = t
				}
			}
			dispatchDone = true
			for _, c := range conds {
				dp.Broadcast(c)
			}
		})

		workersDone := sim.NewWaitGroup("kv-workers")
		for sh := 0; sh < phis; sh++ {
			for w := 0; w < kvConnsPerShard; w++ {
				workersDone.Add(1)
				p.Spawn(fmt.Sprintf("kv-worker-%d-%d", sh, w), func(wp *sim.Proc) {
					defer wp.DoneWG(workersDone)
					kvWorker(wp, m, ps, km, st, queues, conds[sh], sh, bindKey[sh], &dispatchDone, &last)
				})
			}
		}
		p.WaitWG(workersDone)
		m.stopTimed()
		m.TCPProxy.Stop(p)
		p.WaitWG(serversDone)
	})
	if err != nil {
		st.stuck = err
		// The workers never reached stopTimed; charge the wall time spent
		// until the deadlock to the timed phase.
		m.stopTimed()
	}
	for _, sh := range shards {
		if sh != nil {
			s := sh.Stats()
			ps.l.kvLog += s.LogBytes
			ps.l.kvDead += s.DeadBytes
		}
	}
	for i := range st.done {
		if st.done[i] != 0 {
			st.completed++
			st.lat = append(st.lat, st.done[i]-st.arrival[i])
		}
	}
	m.finish(st.completed)
	st.payload = int64(st.completed) * kvValBytes
	if last > first {
		st.vt = last - first
	}
	ps.failed += n - st.completed
	return st
}

// kvWorker is one pooled connection: bound to its shard by the key of its
// first request, it serves the shard's queue until dispatch ends.
func kvWorker(wp *sim.Proc, m *machine, ps *pass, km *kvModel, st *kvStep,
	queues [][]kvQueued, cond *sim.Cond, sh int, bindKey string, dispatchDone *bool, last *sim.Time) {
	conn, err := m.ClientStack.Dial(wp, m.HostStack, kvPort)
	if err != nil {
		ps.problemf("dial: %v", err)
		return
	}
	side := conn.Side(m.ClientStack)
	defer side.Close(wp)
	cl := kvstore.NewClient(side)
	val, _, err := cl.Get(wp, bindKey)
	if err != nil {
		ps.problemf("bind GET: %v", err)
		return
	}
	if msg := km.check(bindKey, val, 0, false); msg != "" {
		ps.problemf("%s", msg)
	}
	for {
		if len(queues[sh]) == 0 {
			if *dispatchDone {
				return
			}
			wp.Wait(cond)
			continue
		}
		op := queues[sh][0]
		queues[sh] = queues[sh][1:]
		if op.write {
			idx := uint64(op.idx) + 1
			put := &kvPut{key: op.key, issued: wp.Now(), acked: -1}
			km.puts[idx] = put
			_, err = ps.l.time(wp, "kvstore.put", func() error {
				return st.guard(func() error { return cl.Put(wp, op.key, kvVal(km.seed, op.key, idx)) })
			})
			if err != nil {
				continue
			}
			put.acked = wp.Now()
			if f, ok := km.floor[op.key]; !ok || put.issued > f {
				km.floor[op.key] = put.issued
			}
		} else {
			floor, hasFloor := km.floor[op.key]
			var val []byte
			var found bool
			_, err = ps.l.time(wp, "kvstore.get", func() error {
				return st.guard(func() (err error) {
					val, found, err = cl.Get(wp, op.key)
					return err
				})
			})
			if err != nil {
				continue
			}
			if !found {
				ps.problemf("GET %s: not found", op.key)
				continue
			}
			if msg := km.check(op.key, val, floor, hasFloor); msg != "" {
				ps.problemf("%s", msg)
				continue
			}
		}
		now := wp.Now()
		st.done[op.idx] = now
		if now > *last {
			*last = now
		}
	}
}

// kvservePass runs the base phase, the soak and then the rate ladder, each
// run on a fresh machine. The model metrics come from the base phase; the
// soak's ops count only as attempted, failed and host time.
func kvservePass(ps *pass, cfg core.Config, seed int64) {
	for k := 0; k < kvBaseMachines; k++ {
		kvRecord(ps, kvRun(ps, cfg, seed*kvBaseMachines+int64(k), kvBaseRate, kvBaseOps))
	}
	ps.notes = append(ps.notes, fmt.Sprintf("base: %d runs of %d arrivals at %.0fk/s, open loop, generator never late (virtual-time schedule): %d completed",
		kvBaseMachines, kvBaseOps, kvBaseRate/1e3, ps.model.ops))
	soak := kvRun(ps, cfg, seed, kvBaseRate, kvSoakOps)
	kvNote(ps, "soak", soak)
	for _, rate := range kvLadder {
		st := kvRun(ps, cfg, seed, rate, kvStepOps)
		p99 := pctl(st.lat, 99)
		grew := st.backlogGrew()
		ok := st.completed == st.n && p99 <= kvLimit && !grew
		if ok && rate/1e3 > ps.model.maxKops {
			ps.model.maxKops = rate / 1e3
		}
		ps.notes = append(ps.notes, fmt.Sprintf("ladder %2.0fk/s: %d/%d ops, %.3f Kops/s, p99 %.1f us, backlog grew %v, meets 1 ms limit %v",
			rate/1e3, st.completed, st.n, st.kops(), us(p99), grew, ok))
		kvNote(ps, "", st)
	}
}

// kvRecord adds st to the pass's model result.
func kvRecord(ps *pass, st *kvStep) {
	ps.model.lat = append(ps.model.lat, st.lat...)
	ps.model.ops += st.completed
	ps.model.vt += st.vt
	ps.model.payloadBytes += st.payload
	kvNote(ps, "", st)
}

// kvNote reports what went wrong in a run, and for a named phase, its size.
func kvNote(ps *pass, phase string, st *kvStep) {
	if phase != "" {
		ps.notes = append(ps.notes, fmt.Sprintf("%s: %d arrivals at %.0fk/s: %d completed, %d failed",
			phase, st.n, st.rate/1e3, st.completed, st.n-st.completed))
	}
	ps.notes = append(ps.notes, st.serverErr...)
	if st.panics > 0 {
		ps.notes = append(ps.notes, fmt.Sprintf("kvstore.Client panicked %d times reading a reply from a closed connection (defect: no end-of-stream check); those ops count as failed", st.panics))
	}
	if st.stuck != nil {
		ps.notes = append(ps.notes, "run ended in a sim deadlock: "+st.stuck.Error())
	}
}

// kvserveCheck reruns fig-serve's gated 40 k/s point with this benchmark's
// driver; it must reproduce BENCH_serve.json exactly.
func kvserveCheck(ps *pass) {
	st := kvRun(ps, kvConfig(), kvRefSeed, kvBaseRate, kvRefOps)
	kops, p99 := st.kops(), us(pctl(st.lat, 99))
	ps.notes = append(ps.notes, fmt.Sprintf("cross-check fig-serve 40k/s n=%d seed %d: %.3f Kops/s, p99 %.3f us (BENCH_serve.json: %.3f, %.3f)",
		kvRefOps, kvRefSeed, kops, p99, kvRefKops, kvRefP99))
	if fmt.Sprintf("%.3f/%.3f", kops, p99) != fmt.Sprintf("%.3f/%.3f", kvRefKops, kvRefP99) {
		ps.problemf("kvserve cross-check: %.3f Kops/s p99 %.3f us, BENCH_serve.json has %.3f / %.3f", kops, p99, kvRefKops, kvRefP99)
	}
}
