package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"solros/internal/core"
	"solros/internal/dataplane"
	"solros/internal/fs"
	"solros/internal/ninep"
	"solros/internal/sim"
)

// sweep: many short experiments, each on a fresh default one-Phi machine,
// the way the figure drivers and their tests use the system. Building the
// machine dominates; the short run phase covers the solrosfs write and
// metadata path and NVMe writes, which fsread never touches.
const (
	sweepFiles = 16
	// sweepMachines per pass gives about a thousand timed ops, so the
	// pass's p99 has ten samples above it.
	sweepMachines = 8
)

// sweepSizes are the writes each file receives, back to back.
var sweepSizes = []int64{4 << 10, 64 << 10, 1 << 20}

func sweepFileBytes() int {
	n := 0
	for _, s := range sweepSizes {
		n += int(s)
	}
	return n
}

// sweepInput is what one machine of the sweep is given: the content of
// each file, the order in which the files receive each write size (so
// their extents interleave differently), and which half is unlinked.
type sweepInput struct {
	files  [][]byte
	order  [][]int // per write size, a permutation of the files
	unlink []int
}

func sweepInputs(seed int64, k int) sweepInput {
	r := rand.New(rand.NewSource(seed*7919 + int64(k)))
	// The files are windows of one seeded buffer, 8 bytes apart, so no two
	// hold the same bytes.
	buf := pattern(r.Int63(), sweepFileBytes()+8*sweepFiles)
	in := sweepInput{files: make([][]byte, sweepFiles)}
	for f := range in.files {
		in.files[f] = buf[8*f : 8*f+sweepFileBytes()]
	}
	for range sweepSizes {
		in.order = append(in.order, r.Perm(sweepFiles))
	}
	in.unlink = r.Perm(sweepFiles)[:sweepFiles/2]
	return in
}

func sweepPass(ps *pass, cfg core.Config, seed int64) {
	for k := 0; k < sweepMachines; k++ {
		sweepMachine(ps, cfg, sweepInputs(seed, k))
	}
	ps.model.maxKops = ps.model.kops() // a closed loop's ceiling is its achieved rate
}

// sweepMachine creates the files, writes 4 KB, 64 KB and 1 MB to each,
// syncs, reads everything back and compares it, unlinks half the files
// and syncs again. The final disk image must then check Clean.
func sweepMachine(ps *pass, cfg core.Config, in sweepInput) {
	files := in.files
	m := newMachine(ps, cfg, false)
	ops := 0
	err := m.run(func(p *sim.Proc) {
		c := m.Phis[0].FS
		buf := c.AllocBuffer(sweepSizes[len(sweepSizes)-1])
		// op runs one FSClient call as a timed, counted operation.
		op := func(name string, f func() error) bool {
			ps.attempted++
			vt, err := ps.l.time(p, "dataplane.fs."+name, f)
			if err != nil {
				ps.failed++
				return false
			}
			ops++
			ps.model.lat = append(ps.model.lat, vt)
			return true
		}
		m.startTimed()
		v0 := p.Now()
		fds := make([]dataplane.Fd, len(files))
		for i := range files {
			op("open", func() (err error) {
				fds[i], err = c.Open(p, fmt.Sprintf("/sweep-%d", i), ninep.OCreate)
				return err
			})
		}
		off := int64(0)
		for s, sz := range sweepSizes {
			for _, i := range in.order[s] {
				copy(buf.Data, files[i][off:off+sz])
				if op("write", func() error { n, err := c.Write(p, fds[i], off, buf, sz); return full(n, sz, err) }) {
					ps.model.payloadBytes += sz
				}
			}
			off += sz
		}
		op("sync", func() error { return c.Sync(p) })
		for i, data := range files {
			off := int64(0)
			for _, sz := range sweepSizes {
				if op("read", func() error { n, err := c.Read(p, fds[i], off, buf, sz); return full(n, sz, err) }) {
					ps.model.payloadBytes += sz
					if !bytes.Equal(buf.Data[:sz], data[off:off+sz]) {
						ps.problemf("sweep: /sweep-%d read back at %d differs from what was written", i, off)
					}
				}
				off += sz
			}
			if err := c.Close(p, fds[i]); err != nil {
				ps.problemf("sweep: close /sweep-%d: %v", i, err)
			}
		}
		for _, i := range in.unlink {
			op("unlink", func() error { return c.Unlink(p, fmt.Sprintf("/sweep-%d", i)) })
		}
		op("sync", func() error { return c.Sync(p) })
		ps.model.vt += p.Now() - v0
		m.stopTimed()
	})
	if err != nil {
		ps.problemf("sweep: %v", err)
	}
	ps.model.ops += ops
	m.finish(ops)
	img := m.SSD.Image()
	if rep := fs.CheckBytes(img.Slice(0, img.Size())); !rep.OK() {
		ps.problemf("sweep: final disk image not Clean: %v", rep.Problems)
	}
}

// full turns a short transfer into an error.
func full(n, want int64, err error) error {
	if err == nil && n != want {
		err = fmt.Errorf("short transfer: %d of %d bytes", n, want)
	}
	return err
}
