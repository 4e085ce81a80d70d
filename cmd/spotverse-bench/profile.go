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

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with the standard library alone, and attributes each
// sample to the layer of the repository that spent it.

// Layer names, after the repository's modules. Every sample lands in
// exactly one of them, so the layers' samples sum to the profile's.
var layers = []string{
	"simclock", "cloud", "catalog", "market", "workload",
	"experiment", "experiment.merge", "strategy", "core", "services",
	"chaos", "serve", "internal.other", "net", "runtime.gc",
	"runtime.other", "bench",
}

// internalLayer maps the first path element of a spotverse/internal
// package to its layer; packages not listed are internal.other.
var internalLayer = map[string]string{
	"simclock": "simclock", "cloud": "cloud", "catalog": "catalog",
	"market": "market", "workload": "workload", "experiment": "experiment",
	"baselines": "strategy", "predict": "strategy", "strategy": "strategy",
	"core": "core", "services": "services", "chaos": "chaos", "serve": "serve",
}

const (
	internalPrefix = "spotverse/internal/"
	mergeFunc      = internalPrefix + "experiment.mergeShards"
)

// netPrefixes mark stdlib frames of the network and encoding stack.
var netPrefixes = []string{"net/", "net.", "encoding/json.", "syscall.", "internal/poll."}

// attribute returns the layer a sample with the given stack belongs to.
// frames run from the leaf to the root. The innermost repository frame
// decides, so runtime and stdlib work done on a package's behalf (malloc,
// GC assist, sorting, maps) counts toward that package; the benchmark's
// own frames (package main) count as bench. Background GC workers are
// runtime.gc; stacks without any repository frame are net when they pass
// through the network or encoding stack, runtime.other otherwise.
func attribute(frames []string) string {
	merge := false
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			return "runtime.gc"
		}
		if strings.HasPrefix(f, mergeFunc) {
			merge = true
		}
	}
	for _, f := range frames {
		if rel, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rel, ".")
			first, _, _ := strings.Cut(pkg, "/")
			layer, ok := internalLayer[first]
			if !ok {
				return "internal.other"
			}
			if layer == "experiment" && merge {
				return "experiment.merge"
			}
			return layer
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	for _, f := range frames {
		for _, p := range netPrefixes {
			if strings.HasPrefix(f, p) {
				return "net"
			}
		}
	}
	return "runtime.other"
}

// attributeProfile decodes a gzipped CPU profile and returns the sample
// count of every layer plus the total.
func attributeProfile(data []byte) (map[string]int64, int64, error) {
	samples, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		out[attribute(s.frames)] += s.count
		total += s.count
	}
	return out, total, nil
}

// profSample is one decoded sample: its function names, leaf first, and
// its sample count.
type profSample struct {
	frames []string
	count  int64
}

// decodeProfile reads the subset of profile.proto a CPU profile needs:
// samples (field 2), locations (4), functions (5) and the string table
// (6). Inlined calls appear as several lines of one location, innermost
// first, which is the leaf-first order attribute expects.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]int64{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			var values []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUvarints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUvarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx >= 0 && idx < int64(len(strs)) {
					ps.frames = append(ps.frames, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v       uint64
			payload []byte
		)
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated uint64 field, packed or not.
func appendUvarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
