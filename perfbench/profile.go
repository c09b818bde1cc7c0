package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuLayers are the host CPU share buckets. A profile sample is charged to
// the innermost frame on its stack that belongs to this repository:
// solros/internal/<pkg> by package name, the benchmark itself to "bench".
// Other internal packages go to "other", and samples with no repository
// frame at all (GC workers, the scheduler) to "runtime".
var cpuLayers = []string{
	"sim", "pcie", "nvme", "transport", "dataplane", "ninep", "controlplane",
	"cache", "fs", "block", "netstack", "kvstore", "bench", "other", "runtime",
}

func layerOf(fn string) (string, bool) {
	// The benchmark's frames are main.* in its binary and
	// solros/perfbench.* in its test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "solros/perfbench.") {
		return "bench", true
	}
	const prefix = "solros/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	path := fn[len(prefix):]
	if dot := strings.IndexByte(path[strings.LastIndexByte(path, '/')+1:], '.'); dot >= 0 {
		path = path[:strings.LastIndexByte(path, '/')+1+dot]
	}
	pkg := path[strings.LastIndexByte(path, '/')+1:]
	for _, l := range cpuLayers[:len(cpuLayers)-3] {
		if pkg == l {
			return l, true
		}
	}
	return "other", true
}

// cpuShares decodes a gzipped runtime/pprof CPU profile and returns each
// layer's share of the samples, in percent.
func cpuShares(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, packed(v, b)...)
				case 2:
					if vals := packed(v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				if i := funcs[fid]; i >= 0 && i < int64(len(strs)) {
					if l, ok := layerOf(strs[i]); ok {
						layer = l
						break stack
					}
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = 100 * float64(counts[l]) / float64(total)
		}
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field number and
// its varint value or length-delimited bytes.
func fields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var body []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, body); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field, packed (body) or not (v).
func packed(v uint64, body []byte) []uint64 {
	if body == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		out = append(out, x)
		body = body[n:]
	}
	return out
}
