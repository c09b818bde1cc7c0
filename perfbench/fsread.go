package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"solros/internal/core"
	"solros/internal/dataplane"
	"solros/internal/ninep"
	"solros/internal/sim"
	"solros/internal/workload"
)

// fsread: one reader thread on one Phi doing 256 KB random reads of a
// 64 MB file, four times the 16 MB buffer cache. The Phi shares a socket
// with the NVMe, so every read takes the peer-to-peer path and the cache
// is bypassed. Geometry and machine are those of fig11's phi-solros
// t=1, 256 KB cell.
const (
	fsFileBytes  = 64 << 20
	fsDiskBytes  = 96 << 20
	fsBlockBytes = 256 << 10
	// fsReads is the size of one pass: 2 GB read, long enough that its
	// p99 has 40 samples above it.
	fsReads = 4096
	// fsRefReads and fsRefSeed are fig11's cell: 128 MB at seed 42.
	fsRefReads = 512
	fsRefSeed  = 42
	fsRefGBs   = 1.941
)

func fsreadConfig() core.Config {
	return core.Config{
		Phis:         1,
		DiskBytes:    fsDiskBytes,
		PhiMemBytes:  fsBlockBytes + (64 << 20),
		HostRAMBytes: 256 << 20,
		ProxyWorkers: 8,
	}
}

// fsreadPass builds one machine, writes the seeded pattern into the file,
// and reads it back at seeded random offsets. A seeded eighth of the
// reads is compared with the pattern.
func fsreadPass(ps *pass, cfg core.Config, seed int64, reads int, pat []byte) {
	m := newMachine(ps, cfg, false)
	offs := workload.Offsets(seed, fsFileBytes, fsBlockBytes, reads)
	pick := rand.New(rand.NewSource(seed ^ 0x5eed))
	ps.attempted += reads
	completed := 0
	err := m.run(func(p *sim.Proc) {
		phi := m.Phis[0]
		var fd dataplane.Fd
		_, err := ps.l.time(p, "dataplane.fs.open", func() (err error) {
			fd, err = phi.FS.Open(p, "/bench", ninep.OCreate)
			return err
		})
		if err != nil {
			ps.problemf("open: %v", err)
			return
		}
		f, err := m.FS.Open(p, "/bench")
		if err == nil {
			err = f.Truncate(p, fsFileBytes)
		}
		for off := 0; err == nil && off < fsFileBytes; off += 1 << 20 {
			_, err = f.Write(p, int64(off), pat[off:off+(1<<20)])
		}
		if err != nil {
			ps.problemf("fill: %v", err)
			return
		}
		buf := phi.FS.AllocBuffer(fsBlockBytes)
		m.startTimed()
		v0 := p.Now()
		for _, off := range offs {
			var n int64
			vt, err := ps.l.time(p, "dataplane.fs.read", func() (err error) {
				n, err = phi.FS.Read(p, fd, off, buf, fsBlockBytes)
				return err
			})
			if err != nil || n != fsBlockBytes {
				continue
			}
			if pick.Intn(8) == 0 && !bytes.Equal(buf.Data[:n], pat[off:off+n]) {
				ps.problemf("read at %d: bytes differ from the file pattern", off)
				continue
			}
			completed++
			ps.model.lat = append(ps.model.lat, vt)
		}
		ps.model.vt += p.Now() - v0
		m.stopTimed()
	})
	if err != nil {
		ps.notes = append(ps.notes, "fsread: "+err.Error())
	}
	ps.model.ops += completed
	m.finish(completed)
	ps.model.maxKops = ps.model.kops() // a closed loop's ceiling is its achieved rate
	ps.model.payloadBytes += int64(completed) * fsBlockBytes
	ps.failed += reads - completed
}

// pattern is the file content for a seed: splitmix64 words, so any
// sampled read can be checked against it.
func pattern(seed int64, n int) []byte {
	out := make([]byte, n+7)
	x := uint64(seed)
	for i := 0; i < n; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(out[i:], z^z>>31)
	}
	return out[:n:n]
}

// fsreadCheck reruns fig11's phi-solros t=1, 256 KB cell with this
// benchmark's driver; it must reproduce the committed golden.
func fsreadCheck(ps *pass) {
	fsreadPass(ps, fsreadConfig(), fsRefSeed, fsRefReads, filePattern(fsRefSeed))
	got := ps.model.gbs()
	ps.notes = append(ps.notes, fmt.Sprintf("cross-check fig11 phi-solros/t=1 256KB: %.3f GB/s (golden %.3f)", got, fsRefGBs))
	if fmt.Sprintf("%.3f", got) != fmt.Sprintf("%.3f", fsRefGBs) {
		ps.problemf("fsread cross-check: %.3f GB/s, fig11 golden is %.3f", got, fsRefGBs)
	}
}
