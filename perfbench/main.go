// Command perfbench runs one benchmark workload against the Solros model
// and prints its metrics. It drives the program only through public APIs:
// core.NewMachine and Machine.Run, dataplane.FSClient, the kvstore client,
// server and shard, and the workload generators.
//
//	perfbench --workload fsread|kvserve|sweep --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats untraced passes of the workload for S seconds
// and prints the end-to-end metrics; with --trace 1 it profiles the passes,
// runs one traced pass, and prints the per-layer metrics. Either way the
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// See README.md for what each workload and metric measures.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"solros/internal/core"
	"solros/internal/telemetry"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	cfg func() core.Config
	// pass runs one pass at seed. Passes of one seed are identical work.
	pass func(ps *pass, cfg core.Config, seed int64)
	// check runs the cross-checks against committed references.
	check func(ps *pass)
	// small runs the short geometry the traced pass uses: tracing makes
	// stage attribution cost grow with traces times spans.
	small func(ps *pass, cfg core.Config, seed int64)
}

var workloads = map[string]workloadDef{
	"fsread": {
		cfg: fsreadConfig,
		pass: func(ps *pass, cfg core.Config, seed int64) {
			fsreadPass(ps, cfg, seed, fsReads, filePattern(seed))
		},
		check: fsreadCheck,
		small: func(ps *pass, cfg core.Config, seed int64) {
			fsreadPass(ps, cfg, seed, fsRefReads, filePattern(seed))
		},
	},
	"kvserve": {
		cfg:   kvConfig,
		pass:  kvservePass,
		check: kvserveCheck,
		small: func(ps *pass, cfg core.Config, seed int64) {
			kvRecord(ps, kvRun(ps, cfg, seed, kvBaseRate, kvRefOps))
		},
	},
	"sweep": {
		cfg:  func() core.Config { return core.Config{Phis: 1} },
		pass: sweepPass,
		small: func(ps *pass, cfg core.Config, seed int64) {
			sweepMachine(ps, cfg, sweepInputs(seed, 0))
		},
	},
}

// watchdogGrace is how long past --seconds a run may go before it is
// taken to have hung.
const watchdogGrace = 140 * time.Second

var patterns = map[int64][]byte{}

// filePattern is fsread's file content for a seed, generated once.
func filePattern(seed int64) []byte {
	if patterns[seed] == nil {
		patterns[seed] = pattern(seed, fsFileBytes)
	}
	return patterns[seed]
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "fsread, kvserve or sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "wall seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fsread|kvserve|sweep --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	// A run ends its last pass and its checks well within two minutes
	// past --seconds. One still going then has hung or is starved of CPU:
	// it stops with its goroutine stacks on standard error, and no result.
	time.AfterFunc(dur+watchdogGrace, func() {
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d still running %v after it began; stopped\n", *name, *seed, dur+watchdogGrace)
		os.Exit(3)
	})
	res, notes := run(w, *name, *seed, dur, *trace == 1)
	for _, n := range notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload and returns its result with the notes to print
// above it.
func run(w workloadDef, name string, seed int64, dur time.Duration, traced bool) (result, []string) {
	notes := []string{
		fmt.Sprintf("workload %s, seed %d; model caches start empty on every machine", name, seed),
		"no model-error figure: neither workload is a paper experiment; the cross-checks compare with committed results",
	}
	var prof bytes.Buffer
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			notes = append(notes, "cpu profile unavailable: "+err.Error())
		}
	}
	cfg := w.cfg()
	var passes []*pass
	start := time.Now()
	for {
		t0 := time.Now()
		ps := &pass{}
		w.pass(ps, cfg, seed)
		passes = append(passes, ps)
		// Start another pass only if one more like this ends in time.
		if time.Since(start)+time.Since(t0) > dur {
			break
		}
	}
	if traced {
		pprof.StopCPUProfile()
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)

	res := result{Correct: true, Metrics: map[string]metric{}}
	p0 := passes[0]
	for i, ps := range passes {
		res.Attempted += ps.attempted
		res.Failed += ps.failed
		if i > 0 && ps.model.digest() != p0.model.digest() {
			ps.problemf("pass %d: model results differ from pass 1 at the same seed", i+1)
		}
		notes = append(notes, problemsOf(ps)...)
	}
	notes = append(notes, p0.notes...)
	notes = append(notes, fmt.Sprintf("%d passes in %.1f s wall; %d ops attempted, %d failed (error_rate %.6f)",
		len(passes), time.Since(start).Seconds(), res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1))))
	var runs []float64
	for _, ps := range passes {
		runs = append(runs, ps.run.Seconds())
	}
	notes = append(notes, fmt.Sprintf("latency percentiles over %d completed ops of one pass; run_s %.4f s wall per pass (median)",
		len(p0.model.lat), median(runs)))

	var extra []*pass // cross-checks and the traced pass: they count for correctness only
	if w.check != nil {
		ck := &pass{}
		w.check(ck)
		notes = append(notes, ck.notes...)
		notes = append(notes, problemsOf(ck)...)
		extra = append(extra, ck)
	}
	if traced {
		cfg.Tracing = true
		tr := &pass{}
		w.small(tr, cfg, seed)
		cfg.Tracing = false
		un := &pass{}
		w.small(un, cfg, seed)
		extra = append(extra, tr, un)
		notes = append(notes, problemsOf(tr)...)
		notes = append(notes, problemsOf(un)...)
		notes = append(notes, layerMetrics(res.Metrics, passes, prof.Bytes(), (gc1.NumGC-gc1.NumForcedGC)-(gc0.NumGC-gc0.NumForcedGC), tr, un)...)
	} else {
		endToEnd(res.Metrics, passes)
	}
	for _, ps := range append(passes, extra...) {
		if len(ps.problems) > 0 {
			res.Correct = false
		}
	}
	return res, notes
}

func problemsOf(ps *pass) []string {
	out := make([]string, len(ps.problems))
	for i, p := range ps.problems {
		out[i] = "CHECK FAILED: " + p
	}
	return out
}

// endToEnd fills the untraced run's metrics.
func endToEnd(out map[string]metric, passes []*pass) {
	p0 := passes[0]
	var setups []float64
	for _, ps := range passes {
		for _, s := range ps.setups {
			setups = append(setups, s.Seconds())
		}
	}
	m := p0.model
	out["setup_s"] = metric{median(setups), "s"}
	out["wall_us_per_op"] = metric{median(perOp(passes, func(u unit) time.Duration { return u.wall })), "us"}
	out["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	out["model_gbs"] = metric{m.gbs(), "GB/s_virtual"}
	out["model_kops"] = metric{m.kops(), "Kops/s_virtual"}
	out["model_p50_us"] = metric{us(pctl(m.lat, 50)), "us_virtual"}
	out["model_p99_us"] = metric{us(pctl(m.lat, 99)), "us_virtual"}
	out["model_max_kops"] = metric{m.maxKops, "Kops/s_virtual"}
}

// perOp is, for each machine of the passes, the host time t took per op
// its timed phases completed, in microseconds.
func perOp(passes []*pass, t func(unit) time.Duration) []float64 {
	var out []float64
	for _, ps := range passes {
		for _, u := range ps.units {
			if u.ops > 0 {
				out = append(out, float64(t(u).Nanoseconds())/1e3/float64(u.ops))
			}
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// stageConservation checks that every retained trace's stage durations sum
// exactly to its root latency, and returns how many traces it checked.
func stageConservation(tel *telemetry.Sink) (int, error) {
	byTrace := map[uint64][]telemetry.Span{}
	for _, sp := range tel.Spans() {
		if sp.Trace != 0 {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	for tr, spans := range byTrace {
		rp := telemetry.ComputePath(tr, spans)
		var sum int64
		for _, sd := range rp.Stages {
			sum += int64(sd.Dur)
		}
		if sum != int64(rp.Total) {
			return len(byTrace), fmt.Errorf("trace %#x: stages sum to %d ns, root took %d ns", tr, sum, int64(rp.Total))
		}
	}
	return len(byTrace), nil
}
