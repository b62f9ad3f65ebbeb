package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// profile.go reads the few fields of a gzipped pprof profile (the
// profile.proto wire format) that cumulative function shares need, so the
// benchmark depends on nothing outside the standard library.

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// cpuShares returns, for each metric in want, the share of CPU time in
// samples whose stack contains any of its functions.
func cpuShares(gz []byte, want map[string][]string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function ID -> string index
		locFuncs  = map[uint64][]uint64{} // location ID -> function IDs (inlined frames too)
		locations [][]byte
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					s.locs = appendInts(s.locs, v, b)
				case sampleValue:
					s.values = appendInts(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			locations = append(locations, b)
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, b := range locations {
		var id uint64
		var funcs []uint64
		err := fields(b, func(num int, v uint64, b []byte) error {
			switch num {
			case locationID:
				id = v
			case locationLine:
				return fields(b, func(num int, v uint64, _ []byte) error {
					if num == lineFunctionID {
						funcs = append(funcs, v)
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		locFuncs[id] = funcs
	}

	metricOf := map[string][]string{} // function name -> metrics it counts for
	for m, names := range want {
		for _, n := range names {
			metricOf[n] = append(metricOf[n], m)
		}
	}
	hit := map[string]uint64{}
	var total uint64
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu/nanoseconds is the last sample type
		total += v
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				for _, m := range metricOf[strs[idx]] {
					if !seen[m] {
						seen[m] = true
						hit[m] += v
					}
				}
			}
		}
	}
	out := map[string]float64{}
	for m := range want {
		if total > 0 {
			out[m] = float64(hit[m]) / float64(total)
		}
	}
	return out, nil
}

// fields walks the protobuf fields of b, passing varints as v and
// length-delimited fields as b. Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}

// appendInts adds a repeated integer field's value: one varint, or a
// packed run when b is set.
func appendInts(dst []uint64, v uint64, b []byte) []uint64 {
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
