package sim

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// A panic inside a Proc comes out of Run on the caller's goroutine, where
// the caller can recover it.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", 0, func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	e.Spawn("bystander", 0, func(p *Proc) { p.Advance(100) })
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the proc's panic value", got)
	}
	if e.Now() != 10 {
		t.Fatalf("engine Now = %v after the panic, want 10", e.Now())
	}
}

// t.Fatal inside a Proc ends the test that called Run. The failing test
// runs in a re-executed child so that its failure does not fail this one.
func TestProcFatalEndsTest(t *testing.T) {
	if os.Getenv("SIM_FATAL_CHILD") == "1" {
		e := NewEngine()
		e.Spawn("p", 0, func(p *Proc) {
			p.Advance(1)
			t.Fatal("fatal inside proc")
		})
		_ = e.Run()
		t.Log("run returned")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProcFatalEndsTest$", "-test.v")
	cmd.Env = append(os.Environ(), "SIM_FATAL_CHILD=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("child exited with %v, want status 1\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, "fatal inside proc") || strings.Contains(s, "run returned") {
		t.Fatalf("t.Fatal inside a proc did not end the test:\n%s", s)
	}
}
