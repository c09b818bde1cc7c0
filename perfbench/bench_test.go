package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"solros/internal/sim"
)

// fingerprint is what must repeat exactly for a seed: the model results
// and the layer counters.
type fingerprint struct {
	Model                                string
	Dispatches, PCIe, RingMsgs, RingByte int64
	NVMeCmds, Doorbells, Interrupts      int64
	NVMeRead, NVMeWrite                  int64
}

// runSmall runs a workload's short geometry, optionally under the CPU
// profiler, and returns its fingerprint.
func runSmall(t *testing.T, name string, seed int64, profile bool) fingerprint {
	t.Helper()
	w := workloads[name]
	if profile {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	ps := &pass{}
	w.small(ps, w.cfg(), seed)
	if len(ps.problems) > 0 {
		t.Fatalf("%s seed %d: %v", name, seed, ps.problems)
	}
	l := ps.l
	return fingerprint{ps.model.digest(), l.dispatches, l.pcieTxns, l.ringMsgs, l.ringBytes,
		l.nvmeCmds, l.doorbells, l.interrupts, l.nvmeRead, l.nvmeWrite}
}

func TestSameSeedRepeatsAndProfilingKeepsVirtualTime(t *testing.T) {
	for _, name := range []string{"fsread", "kvserve", "sweep"} {
		a := runSmall(t, name, 7, false)
		if b := runSmall(t, name, 7, false); b != a {
			t.Errorf("%s: same seed, different results:\n%+v\n%+v", name, a, b)
		}
		if c := runSmall(t, name, 7, true); c != a {
			t.Errorf("%s: profiling moved the results:\n%+v\n%+v", name, a, c)
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	for _, name := range []string{"kvserve", "sweep"} {
		if a, b := runSmall(t, name, 7, false), runSmall(t, name, 8, false); a == b {
			t.Errorf("%s: seeds 7 and 8 gave identical results %+v", name, a)
		}
	}
	// fsread's seed picks the offsets and the file content, but a 256 KB
	// read costs the same virtual time wherever it falls in the file's
	// single extent: the NVMe model has no position-dependent cost.
	if a, b := runSmall(t, "fsread", 7, false), runSmall(t, "fsread", 8, false); a != b {
		t.Errorf("fsread: virtual time now depends on the offsets read:\n%+v\n%+v", a, b)
	}
}

func TestCrossChecks(t *testing.T) {
	for name, check := range map[string]func(*pass){"fsread": fsreadCheck, "kvserve": kvserveCheck} {
		ps := &pass{}
		check(ps)
		if len(ps.problems) > 0 {
			t.Errorf("%s: %v", name, ps.problems)
		}
	}
}

func TestKVModelRejectsWrongValues(t *testing.T) {
	km := &kvModel{seed: 3, puts: map[uint64]*kvPut{
		5: {key: "k", issued: 10, acked: 20},
		9: {key: "k", issued: 30, acked: 40},
	}}
	corrupt := kvVal(3, "k", 5)
	corrupt[100] ^= 1
	for _, c := range []struct {
		what     string
		val      []byte
		floor    sim.Time
		hasFloor bool
		bad      bool
	}{
		{"preload before any PUT", kvVal(3, "k", 0), 0, false, false},
		{"preload after an acknowledged PUT", kvVal(3, "k", 0), 10, true, true},
		{"latest write", kvVal(3, "k", 9), 30, true, false},
		{"write superseded before the GET", kvVal(3, "k", 5), 30, true, true},
		{"corrupt bytes", corrupt, 0, false, true},
		{"another key's write", kvVal(3, "j", 5), 0, false, true},
		{"short value", kvVal(3, "k", 5)[:10], 0, false, true},
	} {
		if msg := km.check("k", c.val, c.floor, c.hasFloor); (msg != "") != c.bad {
			t.Errorf("%s: check = %q, want rejected=%v", c.what, msg, c.bad)
		}
	}
}

func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestCPUSharesChargeBenchFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if shares["bench"] < 50 || total < 99.9 || total > 100.1 {
		t.Errorf("shares %v: want most in bench, summing to 100", shares)
	}
	for fn, want := range map[string]string{
		"solros/internal/sim.(*Engine).Run":             "sim",
		"solros/internal/apps/kvstore.(*Shard).Put":     "kvstore",
		"solros/internal/telemetry/analyze.(*A).OnSpan": "other",
		"main.kvWorker.func2":                           "bench",
		"runtime.memmove":                               "",
	} {
		if got, _ := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]metric{}
	ps := &pass{units: []unit{{ops: 1}}}
	ps.model.vt = 1
	endToEnd(e2e, []*pass{ps})
	layer := map[string]metric{}
	layerMetrics(layer, []*pass{{}}, nil, 0, &pass{}, &pass{})
	for _, c := range []struct {
		what   string
		listed []struct{ Name, Unit string }
		got    map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layer}} {
		var listed, printed []string
		for _, m := range c.listed {
			listed = append(listed, m.Name+" "+m.Unit)
		}
		for name, m := range c.got {
			printed = append(printed, name+" "+m.Unit)
		}
		sort.Strings(listed)
		sort.Strings(printed)
		if a, b := fmtList(listed), fmtList(printed); a != b {
			t.Errorf("%s: BENCHMARK.json lists\n%s\nthe program prints\n%s", c.what, a, b)
		}
	}
}

func fmtList(xs []string) string {
	b, _ := json.MarshalIndent(xs, "", " ")
	return string(b)
}
