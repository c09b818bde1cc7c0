package main

import (
	"fmt"
	"time"

	"solros/internal/sim"
	"solros/internal/telemetry"
)

// fsOps are the FSClient calls the benchmark times.
var fsOps = []string{"open", "read", "write", "sync", "unlink"}

// layerMetrics fills the per-layer metrics of a traced run. passes are the
// profiled passes; counts come from the first (they repeat exactly), wall
// figures from all of them. tr and un are the short pass run with and
// without Config.Tracing. It returns notes to print.
func layerMetrics(out map[string]metric, passes []*pass, prof []byte, gcCycles uint32, tr, un *pass) []string {
	var notes []string
	p0 := passes[0]
	l := &p0.l
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	var newM, boot, alloc []float64
	var simWall time.Duration
	var dispatches int64
	var mallocs, allocBytes uint64
	var done int
	walls := map[string]time.Duration{}
	calls := map[string]int{}
	for _, ps := range passes {
		for i := range ps.l.newMachine {
			newM = append(newM, ps.l.newMachine[i].Seconds())
			alloc = append(alloc, float64(ps.l.newMachineAlloc[i])/(1<<20))
		}
		for _, b := range ps.l.boot {
			boot = append(boot, b.Seconds())
		}
		simWall += ps.l.simWall
		dispatches += ps.l.dispatches
		mallocs += ps.l.mallocs
		allocBytes += ps.l.allocBytes
		done += ps.done
		for name, s := range ps.l.spans {
			walls[name] += s.wall
			calls[name] += len(s.vt)
		}
	}
	perCall := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(walls[name].Nanoseconds()) / 1e3 / float64(calls[name])
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("core.new_machine_s", median(newM), "s")
	put("core.new_machine_alloc_mb", median(alloc), "MB")
	put("core.boot_s", median(boot), "s")

	put("sim.dispatches", float64(l.dispatches), "count")
	put("sim.wall_ns_per_dispatch", ratio(float64(simWall.Nanoseconds()), float64(dispatches)), "ns")
	put("sim.vt_s", l.simVT.Seconds(), "s_virtual")

	put("host.cpu_us_per_op", median(perOp(passes, func(u unit) time.Duration { return u.cpu })), "us")
	put("host.allocs_per_op", ratio(float64(mallocs), float64(done)), "count")
	put("host.alloc_bytes_per_op", ratio(float64(allocBytes), float64(done)), "B")
	put("host.gc_cycles", ratio(float64(gcCycles), float64(len(passes))), "count")
	shares, err := cpuShares(prof)
	if err != nil {
		notes = append(notes, "cpu profile not decoded: "+err.Error())
	}
	for _, layer := range cpuLayers {
		put("host.cpu."+layer+"_pct", shares[layer], "%")
	}

	put("pcie.txns", float64(l.pcieTxns), "count")
	put("transport.msgs", float64(l.ringMsgs), "count")
	put("transport.bytes", float64(l.ringBytes), "B")

	for _, op := range fsOps {
		name := "dataplane.fs." + op
		var vt []sim.Time
		if s := l.spans[name]; s != nil {
			vt = s.vt
		}
		put(name+".vt_p50_us", us(pctl(vt, 50)), "us_virtual")
		put(name+".vt_p99_us", us(pctl(vt, 99)), "us_virtual")
		put(name+".wall_us", perCall(name), "us")
	}

	put("controlplane.fsproxy.p2p", float64(l.p2p), "count")
	put("controlplane.fsproxy.buffered", float64(l.buffered), "count")
	put("controlplane.fsproxy.cache_hits", float64(l.proxyHits), "count")
	put("controlplane.fsproxy.prefetches", float64(l.prefet), "count")
	put("cache.hit_ratio", ratio(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses)), "ratio")
	put("cache.evictions", float64(l.evicts), "count")

	put("nvme.commands", float64(l.nvmeCmds), "count")
	put("nvme.doorbells", float64(l.doorbells), "count")
	put("nvme.interrupts", float64(l.interrupts), "count")
	put("nvme.read_mb", float64(l.nvmeRead)/(1<<20), "MB")
	put("nvme.write_mb", float64(l.nvmeWrite)/(1<<20), "MB")
	put("nvme.flash_busy_pct", 100*ratio(float64(l.flashBusy), float64(l.simVT)), "%")

	put("fs.max_file_extents", float64(l.maxExtents), "count")

	for _, op := range []string{"get", "put"} {
		name := "kvstore." + op
		var vt []sim.Time
		if s := l.spans[name]; s != nil {
			vt = s.vt
		}
		put(name+".vt_p99_us", us(pctl(vt, 99)), "us_virtual")
		put(name+".wall_us", perCall(name), "us")
	}
	put("kvstore.log_mb", float64(l.kvLog)/(1<<20), "MB")
	put("kvstore.dead_pct", 100*ratio(float64(l.kvDead), float64(l.kvLog)), "%")

	rollup := map[string][]sim.Time{}
	for _, tel := range tr.sinks {
		for stage, s := range tel.StageRollup() {
			for _, q := range []float64{50, 99} {
				rollup[stage] = append(rollup[stage], s.Percentile(q))
			}
		}
		n, err := stageConservation(tel)
		if err != nil {
			tr.problemf("traced pass: %v", err)
		}
		notes = append(notes, fmt.Sprintf("traced pass: %d traces, stage durations sum exactly to each root's latency: %v", n, err == nil))
	}
	for _, stage := range telemetry.StageOrder {
		var p50, p99 float64
		if q := rollup[stage]; len(q) == 2 {
			p50, p99 = us(q[0]), us(q[1])
		}
		put("stage."+stage+".p50_us", p50, "us_virtual")
		put("stage."+stage+".p99_us", p99, "us_virtual")
	}
	put("trace.vt_overhead_pct", 100*(ratio(float64(tr.model.vt), float64(un.model.vt))-1), "%")
	put("trace.wall_overhead_pct", 100*(ratio(float64(tr.run), float64(un.run))-1), "%")
	return notes
}
