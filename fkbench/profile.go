package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the program's layers whose host CPU the traced run
// reports, named after their packages. gob and gc are the standard
// library's encoding/gob and the runtime's collector.
var cpuLayers = []string{
	"sim", "gc", "gob", "wire", "znode", "kv", "queue", "faas", "object",
	"core", "fksync", "cache", "fkclient", "obs",
}

const internalPrefix = "faaskeeper/internal/"

// layerOf attributes one CPU sample, given its frames from leaf to root,
// to a layer: the nearest frame in a faaskeeper/internal package (named by
// the package's last path element) or in encoding/gob, so runtime frames
// such as channel operations and malloc count to their caller. Background
// GC work counts as gc. A stack that is only the scheduler's goroutine
// switch counts as sim: in this program every goroutine switch is a
// simulation kernel handoff. Anything else is unattributed ("").
func layerOf(frames []string) string {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, internalPrefix):
			pkg := f[len(internalPrefix):]
			if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
				pkg = pkg[:dot]
			}
			if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
				pkg = pkg[slash+1:]
			}
			return pkg
		case strings.HasPrefix(f, "encoding/gob."):
			return "gob"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC":
			return "gc"
		}
	}
	if n := len(frames); n > 0 && frames[n-1] == "runtime.mcall" {
		return "sim"
	}
	return ""
}

// profileSample is one CPU profile sample: its frames, leaf first, and
// the CPU nanoseconds it stands for.
type profileSample struct {
	frames []string
	ns     int64
}

// parseCPUProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof, keeping only what layer attribution needs.
func parseCPUProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strtab    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profileSample{ns: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strtab)) {
					ps.frames = append(ps.frames, strtab[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value, length-delimited fields their bytes.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		var (
			v    uint64
			body []byte
		)
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints adds a repeated integer field, which arrives either as one
// varint or packed into a length-delimited run.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// layerCPU sums the samples' CPU nanoseconds per layer; "" holds the
// unattributed remainder.
func layerCPU(samples []profileSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.frames)] += s.ns
	}
	return out
}
