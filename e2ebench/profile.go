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

// A stack is one CPU-profile sample: function names innermost first, and
// the number of samples taken with that stack.
type stack struct {
	frames []string
	count  int64
}

const (
	programPrefix = "repro/internal/"
	gcBucket      = "runtime.gc"
	otherBucket   = "other"
)

// layerOf returns the program package a function belongs to — the path
// element after repro/internal/, so subpackages charge their parent — or
// "" for a function outside the program.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, programPrefix) {
		return ""
	}
	rest := fn[len(programPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// isGC reports whether a function belongs to the garbage collector's
// background work, or is the profiler's stand-in for a GC sample.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime._GC" ||
		strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge")
}

// chargeTo names the bucket a stack is charged to: its innermost program
// frame's layer, so runtime and library frames go to the program code that
// called them; otherwise runtime.gc for collector work; otherwise other.
func chargeTo(frames []string) string {
	gc := false
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
		gc = gc || isGC(fn)
	}
	if gc {
		return gcBucket
	}
	return otherBucket
}

// selfShares reduces stacks to each bucket's percentage of all samples;
// the shares sum to 100 when there is at least one sample.
func selfShares(stacks []stack) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[chargeTo(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	for b, n := range counts {
		shares[b] = 100 * float64(n) / float64(total)
	}
	return shares
}

// parseProfile decodes the stacks of a gzipped pprof CPU profile as
// runtime/pprof writes it (the perftools.profiles.Profile protobuf). Only
// the fields needed to name each sample's frames are read.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames = map[uint64]int64{}    // function → string table index
		strtab    []string
	)
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
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
		case 5: // Function
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
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without a value")
		}
		st := stack{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strtab)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strtab))
				}
				st.frames = append(st.frames, strtab[idx])
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1: // 64-bit
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // 32-bit
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field given either unpacked
// (one varint v) or packed (the bytes b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
