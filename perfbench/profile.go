package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"path"
	"strings"
)

// hostLayers are the names the CPU profile is folded into, each reported
// as <layer>.host_share. A sample counts for the layer of its innermost
// frame in the runtime or in this repository: standard-library time goes
// to the repository layer that called it (bufio under telemetry's decoder
// counts as telemetry), while runtime time (GC, malloc, memclr, memmove)
// stays "runtime". The sim package is split by source file; "machine"
// holds its remaining files, and "other" is everything else (the
// benchmark itself, and stacks with no repository frame).
var hostLayers = []string{
	"sched", "exec", "memory", "commit", "machine", "cache", "coherence", "htm", "core",
	"telemetry", "wspec", "workloads", "sweep", "runtime", "other",
}

// layerOf attributes a sampled function, by package and source file, to
// a host layer, or returns "" for a standard-library function.
func layerOf(funcName, file string) string {
	pkg := funcName
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		return "runtime"
	case pkg == "repro/internal/sim":
		switch path.Base(file) {
		case "sched.go":
			return "sched"
		case "exec.go":
			return "exec"
		case "memory.go":
			return "memory"
		case "commit.go":
			return "commit"
		}
		return "machine"
	case pkg == "repro/internal/mem":
		return "memory"
	case pkg == "repro/internal/isa":
		return "workloads"
	}
	switch name := strings.TrimPrefix(pkg, "repro/internal/"); name {
	case "cache", "coherence", "htm", "core", "telemetry", "wspec", "workloads", "sweep":
		return name
	}
	if pkg == "main" || strings.HasPrefix(pkg, "repro/") {
		return "other"
	}
	return ""
}

// foldProfile adds the CPU time of each sample in a gzipped pprof
// profile, as runtime/pprof writes it, to its layer.
func foldProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs  []uint64 // innermost first
		value int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids of its lines, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		fnFile  = map[uint64]int64{}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				samples = append(samples, sample{locs, vals[len(vals)-1]})
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name, file int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id], fnFile[id] = name, file
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		layer := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if l := layerOf(str(fnName[fn]), str(fnFile[fn])); l != "" {
					layer = l
					break frames
				}
			}
		}
		into[layer] += s.value
	}
	return nil
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, passing each field's number and
// either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
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
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one varint,
// or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}
