package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. The benchmark reads the few fields it needs — samples with
// their location ids and values, locations with their (inlined) line
// entries, functions and the string table — with a minimal protobuf
// decoder, since the module takes no dependencies.

// profileSample is one stack (innermost function first) and its CPU
// time in nanoseconds.
type profileSample struct {
	funcs []string
	ns    int64
}

// parseProfile decodes a CPU profile into samples.
func parseProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
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
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					return appendVarints(&s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu/nanoseconds value")
		}
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					funcs = append(funcs, strs[i])
				}
			}
		}
		out = append(out, profileSample{funcs: funcs, ns: int64(s.values[1])})
	}
	return out, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding:
// one value (wire type 0) or a packed run (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
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

// moduleLayer maps a package under microlib/internal to its layer.
// Helpers fold into the layer that calls them: prng, trace and
// simpoint serve the workload generator, core is the mechanism
// registry, and the campaign's own helpers (stats, cfgreg, fault,
// telemetry, hwcost) belong to the campaign.
var moduleLayer = map[string]string{
	"campaign": "campaign", "stats": "campaign", "cfgreg": "campaign",
	"fault": "campaign", "telemetry": "campaign", "hwcost": "campaign",
	"runner":   "runner",
	"cpu":      "cpu",
	"cache":    "cache",
	"hier":     "hier",
	"mem":      "mem",
	"bus":      "bus",
	"sim":      "sim",
	"workload": "workload", "prng": "workload", "trace": "workload", "simpoint": "workload",
	"mech": "mech", "core": "mech",
}

const internalPrefix = "microlib/internal/"

// gcAndAlloc are runtime entry points whose presence anywhere on a
// stack marks the sample as allocation or garbage-collection work.
var gcAndAlloc = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.makemap", "runtime.newarray", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.wbBufFlush",
	"runtime.gcWriteBarrier", "runtime.bulkBarrierPreWrite", "runtime.gcDrain", "runtime.markroot",
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// attribute assigns a sample to a layer: to runtime when it is
// allocation or GC work, or when no frame belongs to the simulator;
// otherwise to the innermost microlib/internal frame's layer. core
// names the CPU model ("ooo"/"inorder") for cpu samples.
func attribute(funcs []string) (layer, core string) {
	if len(funcs) > 0 && isRuntime(funcs[0]) {
		for _, fn := range funcs {
			for _, p := range gcAndAlloc {
				if strings.HasPrefix(fn, p) {
					return "runtime", ""
				}
			}
		}
	}
	for i, fn := range funcs {
		if strings.HasPrefix(fn, "main.") {
			// The benchmark's own code, such as the timing stream.
			return "other", ""
		}
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		mod := rest[:strings.IndexAny(rest+".", "./")]
		l, ok := moduleLayer[mod]
		if !ok {
			return "other", ""
		}
		if l == "cpu" {
			core = cpuModel(funcs[i:])
		}
		return l, core
	}
	for _, fn := range funcs {
		if isRuntime(fn) {
			return "runtime", ""
		}
	}
	return "other", ""
}

// cpuModel finds which core model a cpu-layer stack runs under: the
// nearest cpu frame whose receiver names one.
func cpuModel(funcs []string) string {
	for _, fn := range funcs {
		rest, ok := strings.CutPrefix(fn, internalPrefix+"cpu.")
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(rest, "(*OoO)"), strings.HasPrefix(rest, "ooo"):
			return "ooo"
		case strings.HasPrefix(rest, "(*InOrder)"), strings.HasPrefix(rest, "inorder"):
			return "inorder"
		}
	}
	return ""
}

// layerTimes is CPU time per layer, and per core model for the cpu
// layer, summed over a profile.
type layerTimes struct {
	total int64
	layer map[string]int64
	cpuBy map[string]int64
}

func attributeProfile(samples []profileSample) layerTimes {
	t := layerTimes{layer: map[string]int64{}, cpuBy: map[string]int64{}}
	for _, s := range samples {
		l, core := attribute(s.funcs)
		t.total += s.ns
		t.layer[l] += s.ns
		if l == "cpu" {
			t.cpuBy[core] += s.ns
		}
	}
	return t
}
