package core

import (
	"fmt"
	"testing"

	"solros/internal/ninep"
	"solros/internal/sim"
)

// TestDispatchDigestPinned pins the sim kernel's scheduling decisions on a
// small two-Phi write workload: two workers each write 8 × 1 MB to their
// own file and Sync. The digest folds every dispatched proc's name and
// clock, so any change to dispatch order, dispatch count or virtual time
// moves it. The values were captured with the goroutine hand-off kernel;
// the coroutine kernel must reproduce them exactly, seeded or not.
func TestDispatchDigestPinned(t *testing.T) {
	const (
		wantDispatches = 735
		wantNow        = sim.Time(14_176_400)
	)
	for _, tc := range []struct {
		seed   int64
		digest uint64
	}{
		{0, 0xfb24ede4c98287ec},
		{5, 0x8bcf466d5dd2c3bb},
	} {
		m := NewMachine(Config{Phis: 2, SchedSeed: tc.seed})
		m.MustRun(func(p *sim.Proc, m *Machine) {
			Parallel(p, 2, "w", func(i int, wp *sim.Proc) {
				c := m.Phis[i].FS
				fd, err := c.Open(wp, fmt.Sprintf("/w%d", i), ninep.OCreate)
				if err != nil {
					t.Error(err)
					return
				}
				buf := c.AllocBuffer(1 << 20)
				for k := int64(0); k < 8; k++ {
					if _, err := c.Write(wp, fd, k<<20, buf, 1<<20); err != nil {
						t.Error(err)
						return
					}
				}
				if err := c.Sync(wp); err != nil {
					t.Error(err)
				}
			})
		})
		e := m.Engine
		if got := e.TraceDigest(); got != tc.digest {
			t.Errorf("seed %d: digest %016x, want %016x", tc.seed, got, tc.digest)
		}
		if got := e.Dispatches(); got != wantDispatches {
			t.Errorf("seed %d: %d dispatches, want %d", tc.seed, got, wantDispatches)
		}
		if got := e.Now(); got != wantNow {
			t.Errorf("seed %d: final Now %d ns, want %d", tc.seed, int64(got), int64(wantNow))
		}
	}
}
