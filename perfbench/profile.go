package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the gzipped protobuf profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto). The module has
// no dependencies beyond the standard library, so the few fields the
// benchmark needs — samples, locations, functions, strings — are read
// by hand.

// stackSample is one profile sample: its value (CPU or delay
// nanoseconds, the second sample value) and its stack, leaf first, as
// function names with inlined frames expanded innermost first.
type stackSample struct {
	value int64
	stack []string
}

// Profile field numbers.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

// parseProfile decodes a gzipped pprof profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		strs     []string
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s rawSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, wire, v, data)
				case fSampleValue:
					s.values = appendVarints(s.values, wire, v, data)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		ss := stackSample{value: int64(s.values[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
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

// funcPackage returns the import path of a symbolised Go function name,
// e.g. "repro/internal/sim.(*Engine).Run" → "repro/internal/sim".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// selfLayers names the packages whose CPU-profile self time the traced
// run reports, as <layer>.self_s.
var selfLayers = []string{
	"sim", "cpu", "network", "monitor", "manager", "regress", "policy",
	"core", "experiment", "server", "session", "api", "http", "json",
}

// layerOf maps a package import path onto a reported layer, or "".
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		l := strings.TrimPrefix(pkg, "repro/internal/")
		for _, want := range selfLayers {
			if l == want {
				return l
			}
		}
	case pkg == "net" || pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	case pkg == "encoding/json":
		return "json"
	}
	return ""
}

// gcRoots are runtime functions under which the collector does its work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.sweepone", "runtime.markroot",
}

// isGC reports whether a stack belongs to garbage collection.
func isGC(stack []string) bool {
	for _, f := range stack {
		for _, r := range gcRoots {
			if f == r {
				return true
			}
		}
	}
	return false
}

// attribute sums a CPU profile's sample time by the leaf frame's layer,
// in seconds, and the time spent under the garbage collector.
func attribute(samples []stackSample) (self map[string]float64, gc float64) {
	self = make(map[string]float64, len(selfLayers))
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		secs := float64(s.value) / 1e9
		if isGC(s.stack) {
			gc += secs
		}
		if l := layerOf(funcPackage(s.stack[0])); l != "" {
			self[l] += secs
		}
	}
	return self, gc
}

// blockedIn sums a block profile's delay, in seconds, over samples whose
// stack passes through a function whose name starts with prefix.
func blockedIn(samples []stackSample, prefix string) float64 {
	var total float64
	for _, s := range samples {
		for _, f := range s.stack {
			if strings.HasPrefix(f, prefix) {
				total += float64(s.value) / 1e9
				break
			}
		}
	}
	return total
}
