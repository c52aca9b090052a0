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

// CPU-profile attribution: flat samples of a runtime/pprof CPU profile are
// bucketed by the leaf function's name into the repo's layers, the Go
// scheduler, the Go allocator/collector, and everything else. The decoder
// below reads just the four message kinds of profile.proto that flat
// attribution needs, so the benchmark needs neither `go tool pprof` nor a
// module dependency.

// cpuBuckets are the *.cpu_share metrics, in reporting order.
var cpuBuckets = []string{"sim", "netsim", "orca", "coll", "core", "apps", "cluster", "faults",
	"runtime.sched", "runtime.gc", "other"}

// layerPrefixes maps a function-name prefix to its bucket; the first match
// wins, so apps/ precedes nothing that could shadow it.
var layerPrefixes = []struct{ prefix, bucket string }{
	{"albatross/internal/sim.", "sim"},
	{"albatross/internal/netsim.", "netsim"},
	{"albatross/internal/orca.", "orca"},
	{"albatross/internal/coll.", "coll"},
	{"albatross/internal/core.", "core"},
	{"albatross/internal/apps/", "apps"},
	{"albatross/internal/cluster.", "cluster"},
	{"albatross/internal/faults.", "faults"},
}

// schedPrefixes are the runtime functions behind the goroutine baton and
// the LP fences: scheduler, parking, channels, futexes, runtime locks and
// the atomics they spin on. The two runtime lists were drawn from the
// profiles of every workload (Go 1.24): what neither names lands in "other",
// which stays under 6% everywhere — a new Go release may need additions.
var schedPrefixes = []string{
	"runtime.futex", "runtime.lock", "runtime.unlock", "runtime.casgstatus", "runtime.nanotime",
	"runtime.chansend", "runtime.chanrecv", "runtime.chanparkcommit", "runtime.send", "runtime.recv", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.mcall", "runtime.gogo",
	"runtime.schedule", "runtime.findRunnable", "runtime.stealWork", "runtime.execute", "runtime.resetspinning",
	"runtime.runq", "runtime.globrunq", "runtime.pidle", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.handoffp", "runtime.acquirep", "runtime.releasep", "runtime.wirep", "runtime.acquirem", "runtime.releasem",
	"runtime.startlockedm", "runtime.stoplockedm", "runtime.acquireSudog", "runtime.releaseSudog", "runtime.dropg",
	"runtime.notesleep", "runtime.notetsleep", "runtime.notewakeup", "runtime.usleep", "runtime.osyield", "runtime.procyield",
	"runtime.goexit", "runtime.newproc", "runtime.gfget", "runtime.gfput", "runtime.gdestroy", "runtime.systemstack",
	"runtime.(*guintptr)", "runtime.(*waitq)", "runtime.(*timers)", "runtime.(*mLockProfile)",
	"internal/runtime/atomic.", "sync.",
}

// gcPrefixes are the allocator and the collector.
var gcPrefixes = []string{
	"runtime.gc", "runtime.malloc", "runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice",
	"runtime.nextFreeFast", "runtime.memclr", "runtime.scan", "runtime.mark", "runtime.greyobject", "runtime.findObject",
	"runtime.spanOf", "runtime.heapBits", "runtime.typePointers", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.madvise", "runtime.sysUnused", "runtime.sysUsed",
	"runtime.(*mspan)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*gcWork)",
	"runtime.(*gcBits)", "runtime.(*gcControllerState)", "runtime.(*sweepLocked)", "runtime.(*pageAlloc)",
	"runtime.(*fixalloc)", "runtime.(*spanSet)", "runtime.(*limiterEvent)", "runtime.(*scavengerState)",
	"runtime.(*unwinder)", "gcWriteBarrier",
}

// bucketOf assigns a function name to one of cpuBuckets.
func bucketOf(fn string) string {
	for _, l := range layerPrefixes {
		if strings.HasPrefix(fn, l.prefix) {
			return l.bucket
		}
	}
	for _, p := range schedPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.sched"
		}
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	return "other"
}

// cpuShares turns flat samples per function into a share per bucket; the
// shares sum to 1 (all zero when the profile caught no sample).
func cpuShares(flat map[string]int64) map[string]float64 {
	var total int64
	sums := map[string]int64{}
	for fn, v := range flat {
		sums[bucketOf(fn)] += v
		total += v
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = ratio(float64(sums[b]), float64(total))
	}
	return out
}

// flatSamples decodes a gzipped pprof profile and returns, per function
// name, the sum of the first sample value over the samples whose leaf
// frame is in that function (an inlined leaf counts for the inlined
// function, as in `go tool pprof -top`).
func flatSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> leaf function id
		fnName  = map[uint64]uint64{} // function id -> string index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			haveLoc, haveVal := false, false
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				if f != 1 && f != 2 {
					return nil
				}
				vals, err := protoUints(v, d)
				if err != nil {
					return err
				}
				if len(vals) == 0 {
					return nil
				}
				switch {
				case f == 1 && !haveLoc:
					s.leaf, haveLoc = vals[0], true
				case f == 2 && !haveVal:
					s.value, haveVal = int64(vals[0]), true
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLoc {
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine: // first Line is the innermost frame
					haveLine = true
					return protoFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id, name uint64
			err := protoFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := map[string]int64{}
	for _, s := range samples {
		idx := fnName[locFn[s.leaf]]
		if idx >= uint64(len(strs)) {
			return nil, errors.New("profile: string index out of range")
		}
		flat[strs[idx]] += s.value
	}
	return flat, nil
}

// protoFields calls fn for every field of one protobuf message: v holds a
// varint field's value, data a length-delimited field's bytes.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
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
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// protoUints returns a repeated varint field's values whether it arrived
// packed (data non-nil) or as a single varint.
func protoUints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
