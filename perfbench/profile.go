package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfPackages are the packages the traced run reports a self fraction
// for. A profile sample is charged to the innermost frame that belongs
// to this module, so runtime work (copying, allocation, map operations,
// GC assist) lands on the repo function that caused it.
var selfPackages = []string{
	"sim", "vcore", "llc", "arbiter", "mshr", "cache", "noc", "dram", "throttle", "ring",
	"dataflow", "serving", "cluster", "telemetry", "hwprof",
}

// simStack are the cycle engine and its components.
var simStack = []string{"sim", "vcore", "llc", "arbiter", "mshr", "cache", "noc", "dram", "throttle", "ring"}

// gcFrames mark a sample as garbage-collection work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone",
}

// cpuProfile is the part of a pprof CPU profile the report needs.
type cpuProfile struct {
	total float64
	// self is the CPU time charged to each package; packages of this
	// module outside selfPackages are charged to "other", samples
	// without a frame of this module to "runtime".
	self map[string]float64
	// cum is the CPU time of samples with a frame of each package
	// anywhere in their stack.
	cum map[string]float64
	gc  float64
}

func newCPUProfile() *cpuProfile {
	return &cpuProfile{self: map[string]float64{}, cum: map[string]float64{}}
}

// modulePackage returns the package a function of this module belongs
// to ("llc" for "repro/internal/llc.(*Slice).Tick", "llamcat" for the
// root facade), or "" for a function of another module or the runtime.
func modulePackage(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro."):
		return "llamcat"
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	case !strings.HasPrefix(fn, "repro/"):
		return ""
	}
	rest := fn[strings.LastIndexByte(fn, '/')+1:]
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isSelfPackage(pkg string) bool {
	for _, p := range selfPackages {
		if p == pkg {
			return true
		}
	}
	return false
}

// add parses one gzipped pprof CPU profile and accumulates it.
func (p *cpuProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU value is the last sample type (nanoseconds).
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) / 1e9
		p.total += v
		owner := ""
		seen := map[string]bool{}
		isGC := false
		for _, locID := range s.locs {
			for _, fnID := range prof.locFuncs[locID] {
				name := prof.strings[prof.funcNames[fnID]]
				pkg := modulePackage(name)
				if owner == "" && pkg != "" {
					owner = pkg
				}
				if pkg != "" && !seen[pkg] {
					seen[pkg] = true
					p.cum[pkg] += v
				}
				for _, g := range gcFrames {
					if strings.HasPrefix(name, g) {
						isGC = true
					}
				}
			}
		}
		switch {
		case owner == "":
			owner = "runtime"
		case !isSelfPackage(owner):
			owner = "other"
		}
		p.self[owner] += v
		if isGC {
			p.gc += v
		}
	}
	return nil
}

func (p *cpuProfile) selfFrac(pkg string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.self[pkg] / p.total
}

func (p *cpuProfile) cumFrac(pkg string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.cum[pkg] / p.total
}

// decodedProfile is the subset of the pprof protobuf message
// (github.com/google/pprof/proto/profile.proto) the report reads.
type decodedProfile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcNames map[uint64]int64    // function ID -> string table index
	strings   []string
}

type sample struct {
	locs   []uint64 // location IDs, leaf first
	values []int64
}

// Field numbers of the pprof messages read here.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*decodedProfile, error) {
	p := &decodedProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case profSample:
			var s sample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				var err error
				switch f {
				case sampleLocationID:
					s.locs, err = appendVarints(s.locs, v, d)
				case sampleValue:
					var u []uint64
					u, err = appendVarints(nil, v, d)
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(d, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. Varint fields
// pass their value in v; length-delimited fields pass their bytes in
// data.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data) or not (v).
func appendVarints(xs []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(xs, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		xs = append(xs, x)
		data = data[n:]
	}
	return xs, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
