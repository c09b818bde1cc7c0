package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// The typed run-queue heap always pops the least (time, pri, id) key among
// the queued Procs, however pushes and pops interleave. Seeding the engine
// makes push draw random priorities; times repeat so every tie-break
// level is exercised.
func TestRunQueuePopsLeastKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()
	e.SetSchedSeed(3)
	var queued []*Proc
	popCheck := func() {
		least := 0
		for i, q := range queued {
			if procLess(q, queued[least]) {
				least = i
			}
		}
		if got, want := e.pop(), queued[least]; got != want {
			t.Fatalf("popped id %d, want id %d", got.id, want.id)
		}
		queued = append(queued[:least], queued[least+1:]...)
	}
	for id := 0; id < 2000; id++ {
		p := &Proc{id: id, time: Time(rng.Intn(16))}
		e.push(p)
		queued = append(queued, p)
		if rng.Intn(2) == 0 {
			popCheck()
		}
	}
	for len(queued) > 0 {
		popCheck()
	}
	if len(e.ready) != 0 {
		t.Fatalf("%d Procs left in the run queue", len(e.ready))
	}
}

// A Proc that is still the earliest after Advance is re-dispatched in
// place with the same bookkeeping as a dispatch from Run: one
// EvDispatch and one Dispatches tick per Advance, and the engine clock
// follows it.
func TestInPlaceRedispatchBookkeeping(t *testing.T) {
	e := NewEngine()
	rec := NewRecorder(100)
	e.SetTracer(rec.Trace)
	e.Spawn("solo", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(10)
			if e.Now() != p.Now() {
				t.Errorf("engine Now %v, proc Now %v", e.Now(), p.Now())
			}
		}
	})
	e.MustRun()
	if got := e.Dispatches(); got != 4 {
		t.Fatalf("Dispatches = %d, want 4 (spawn + 3 Advances)", got)
	}
	if got := rec.Dispatches("solo"); got != 4 {
		t.Fatalf("recorded %d dispatch events, want 4", got)
	}
	var kinds []EventKind
	for _, ev := range rec.Events() {
		kinds = append(kinds, ev.Kind)
	}
	want := []EventKind{EvSpawn, EvDispatch, EvDispatch, EvDispatch, EvDispatch, EvDone}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
}

// A Proc that has returned hands its coroutine to the next Spawn, so a
// Spawn allocates only its Proc; Run ends the idle coroutines before it
// returns, leaving no goroutine behind.
func TestSpawnReusesFinishedCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	var cos []*coro
	e.Spawn("parent", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			cos = append(cos, p.Spawn("child", func(*Proc) {}).co)
			p.Advance(1) // the child runs and returns
		}
		for i := 0; i < 16; i++ {
			p.Spawn("sibling", func(c *Proc) { c.Advance(5) })
		}
	})
	e.MustRun()
	if cos[0] != cos[1] || cos[1] != cos[2] {
		t.Fatalf("sequential children ran on coroutines %p %p %p, want one reused", cos[0], cos[1], cos[2])
	}
	if len(e.idle) != 0 {
		t.Fatalf("%d idle coroutines left after Run", len(e.idle))
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before Run, %d after", before, after)
	}
}
