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

// cpuBuckets are the host.cpu_share.* buckets, in report order. The
// program's other packages (core, topo, m68k, ...) and the benchmark's
// own code fall in "other".
var cpuBuckets = []string{"sim", "kern", "hpc", "netif", "channels", "objmgr", "trace", "gc", "sched", "other"}

const internalPrefix = "hpcvorx/internal/"

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.gcMark", "runtime.gcStart",
	"runtime.gcSweep", "runtime.sweepone", "runtime.GC",
}

// attribute charges each sample of a CPU profile to a bucket and adds
// the counts to into. A sample goes to the innermost
// hpcvorx/internal/<pkg> frame on its stack, so fmt or malloc called
// from channels counts as channels. A stack without such a frame goes
// to gc when it runs the collector, to sched when it is made only of
// runtime frames, and to other otherwise.
func attribute(prof []byte, into map[string]int64) error {
	stacks, err := parseProfile(prof)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		into[bucketOf(s.funcs)] += s.count
	}
	return nil
}

func bucketOf(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			switch pkg {
			case "sim", "kern", "hpc", "netif", "channels", "objmgr", "trace":
				return pkg
			}
			return "other"
		}
	}
	runtimeOnly := true
	for _, f := range funcs {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "runtime/internal") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "sched"
	}
	return "other"
}

// profStack is one sample: its function names, innermost first, and
// how many times it was seen.
type profStack struct {
	funcs []string
	count int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's first
// value and the function names along its stack.
func parseProfile(data []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					s.values = appendVarints(s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []profStack
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := profStack{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if n := funcName[f]; n < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[n])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints adds one repeated-integer field occurrence, packed or
// not, to xs.
func appendVarints(xs []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(xs, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		xs = append(xs, x)
		b = b[n:]
	}
	return xs
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its value (varint and fixed fields) or
// bytes (length-delimited fields).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
