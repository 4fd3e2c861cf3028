package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The simulator is callback-driven, so a layer's CPU time cannot be timed
// from outside. The traced run takes a CPU profile instead and charges each
// sample to the layer of its innermost edisim/internal frame.

// layerOf maps edisim/internal packages to the layers the benchmark
// reports. rng and units are helpers every layer calls: their samples go to
// the caller. Packages not listed (core, faults, report, ...) are "other".
// Shares are of the samples outside the harness.
var layerOf = map[string]string{
	"sim":       "sim",
	"netsim":    "netsim",
	"cluster":   "hw",
	"hw":        "hw",
	"web":       "web",
	"load":      "load",
	"autoscale": "autoscale",
	"mapred":    "mapred",
	"yarn":      "mapred",
	"hdfs":      "mapred",
	"jobs":      "mapred",
	"power":     "power",
	"stats":     "stats",
	"rng":       "",
	"units":     "",
}

// gcOrAlloc lists the runtime entry points of garbage collection and
// allocation.
var gcOrAlloc = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.makemap", "runtime.growslice",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.scanobject", "runtime.greyobject",
	"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*gcWork)", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mspan)",
	"runtime.(*mcentral)", "runtime.(*sweepLocked)",
}

// bucket names the layer a stack belongs to; frames run from the leaf
// outwards. Garbage collection and allocation on a layer's behalf go to
// "runtime"; the benchmark's own code (package main: calibration, checks,
// the collections between points) goes to "harness".
func bucket(frames []string) string {
	gc := false
	for _, f := range frames {
		if pkg, ok := internalPkg(f); ok {
			l, known := layerOf[pkg]
			switch {
			case !known:
				return "other"
			case l == "":
				continue
			case gc:
				return "runtime"
			}
			return l
		}
		if strings.HasPrefix(f, "main.") {
			return "harness"
		}
		for _, p := range gcOrAlloc {
			gc = gc || strings.HasPrefix(f, p)
		}
	}
	if gc {
		return "runtime"
	}
	return "other"
}

// internalPkg extracts <pkg> from "edisim/internal/<pkg>.Func".
func internalPkg(fn string) (string, bool) {
	const prefix = "edisim/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// profileBuckets decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and returns the sample count per layer.
func profileBuckets(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	var frames []string
	for _, s := range p.samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		out[bucket(frames)] += s.count
	}
	return out, nil
}

// The subset of profile.proto the bucketing needs.
type pprofSample struct {
	locs  []uint64
	count int64
}

type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

var errProto = errors.New("profile: malformed protobuf")

// protoReader walks one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *protoReader) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errProto
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return field, wire, v, payload, err
}

// varints appends a repeated integer field, packed (wire type 2) or not.
func varints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := protoReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := protoReader{b}
	for len(r.b) > 0 {
		field, wire, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			s, err := decodeSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			if err := p.decodeLocation(payload); err != nil {
				return nil, err
			}
		case 5: // Function
			if err := p.decodeFunction(payload); err != nil {
				return nil, err
			}
		case 6: // string_table
			if wire != 2 {
				return nil, errProto
			}
			p.strings = append(p.strings, string(payload))
		}
	}
	for _, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

func decodeSample(b []byte) (pprofSample, error) {
	var s pprofSample
	var values []uint64
	r := protoReader{b}
	for len(r.b) > 0 {
		field, wire, v, payload, err := r.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = varints(s.locs, wire, v, payload)
		case 2:
			values, err = varints(values, wire, v, payload)
		}
		if err != nil {
			return s, err
		}
	}
	if len(values) == 0 {
		return s, errProto
	}
	s.count = int64(values[0]) // sample_type[0] is the sample count
	return s, nil
}

func (p *pprofProfile) decodeLocation(b []byte) error {
	var id uint64
	var funcs []uint64
	r := protoReader{b}
	for len(r.b) > 0 {
		field, _, v, payload, err := r.next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			id = v
		case 4: // Line
			lr := protoReader{payload}
			for len(lr.b) > 0 {
				f, _, lv, _, err := lr.next()
				if err != nil {
					return err
				}
				if f == 1 {
					funcs = append(funcs, lv)
				}
			}
		}
	}
	p.locFuncs[id] = funcs
	return nil
}

func (p *pprofProfile) decodeFunction(b []byte) error {
	var id uint64
	var name int64
	r := protoReader{b}
	for len(r.b) > 0 {
		field, _, v, _, err := r.next()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	p.funcName[id] = name
	return nil
}
