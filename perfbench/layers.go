package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into the program's public API, recorded by the
// benchmark around the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the span log's first span
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
}

// spanLog keeps spans in memory; the traced run writes them out at exit.
// A nil *spanLog records nothing, so untraced runs pay one nil check.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

// begin opens a span and returns its index (-1 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.base.IsZero() {
		l.base = time.Now()
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.base)), Parent: parent})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.mu.Lock()
	l.spans[i].End = int64(time.Since(l.base))
	l.mu.Unlock()
}

// medianMS is the median duration of the named spans, in milliseconds.
func (l *spanLog) medianMS(name string) float64 {
	if l == nil {
		return 0
	}
	var ds []float64
	for _, s := range l.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return quantile(ds, 0.5)
}

func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rtDelta is the change of the runtime counters over the timed phase.
type rtDelta struct {
	allocObjects float64
	gcCycles     float64
	gcCPU        float64 // seconds
	totalCPU     float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtDelta {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtDelta{
		allocObjects: float64(s[0].Value.Uint64()),
		gcCycles:     float64(s[1].Value.Uint64()),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

func (a rtDelta) add(b rtDelta) rtDelta {
	return rtDelta{a.allocObjects + b.allocObjects, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// heapPeak tracks the largest live-heap sample seen in a traced run.
type heapPeak struct {
	mu   sync.Mutex
	peak uint64
}

func (h *heapPeak) sample() {
	if h == nil {
		return
	}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	h.peak = max(h.peak, s[0].Value.Uint64())
	h.mu.Unlock()
}

// layers are the repository's modules; a CPU sample is charged to the
// nearest calling frame in one of them.
var layers = []string{
	"qoscluster", "experiments", "campaign", "simclock",
	"agent", "agents", "diagnose", "heal", "ontology",
	"fsim", "cluster", "svc",
	"probe", "baseline", "operators",
	"workload", "lsf", "faultinject", "metrics",
	"adminsrv", "netsim", "notify", "trace", "perfbench",
}

// agentFamily are the layers whose CPU counts as agent work.
var agentFamily = []string{"agent", "agents", "diagnose", "heal", "ontology"}

// layerOf maps a function name from a profile to a layer, or "" for
// frames outside the repository (standard library, runtime).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/perfbench."):
		return "perfbench"
	case strings.HasPrefix(fn, "repro."):
		return "qoscluster"
	case strings.HasPrefix(fn, "repro/"):
		pkg := fn[len("repro/"):]
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[i+1:]
		}
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	}
	return ""
}

// profileSplit is a CPU profile folded into per-layer self time.
type profileSplit struct {
	total int64            // CPU nanoseconds sampled
	self  map[string]int64 // layer -> CPU nanoseconds; "" = no repro frame
	leafs map[string]int64 // leaf function -> CPU nanoseconds
}

func (p *profileSplit) pct(layer string) float64 {
	if p == nil || p.total == 0 {
		return 0
	}
	return 100 * float64(p.self[layer]) / float64(p.total)
}

// topLeaves returns the n leaf functions with the most CPU.
func (p *profileSplit) topLeaves(n int) []string {
	type kv struct {
		k string
		v int64
	}
	var all []kv
	for k, v := range p.leafs {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].v > all[j].v || (all[i].v == all[j].v && all[i].k < all[j].k)
	})
	var out []string
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, fmt.Sprintf("%5.1f%% %s", 100*float64(all[i].v)/float64(p.total), all[i].k))
	}
	return out
}

// startProfile starts a CPU profile into memory; the returned stop
// function ends it and folds it into per-layer self time.
func startProfile() (func() (*profileSplit, error), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() (*profileSplit, error) {
		pprof.StopCPUProfile()
		return foldProfile(buf.Bytes())
	}, nil
}

// foldProfile decodes a gzipped pprof protobuf just far enough to charge
// each sample's CPU time to the nearest repro frame. It reads samples
// (field 2: location ids, values), locations (field 4: id, lines),
// functions (field 5: id, name) and the string table (field 6).
func foldProfile(gz []byte) (*profileSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		ns   int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location -> function ids, leaf-most inline first
		fnName  = map[uint64]int64{}    // function -> string index
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					for _, x := range pbUints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.ns = vals[len(vals)-1] // [samples, cpu nanoseconds]
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	p := &profileSplit{self: map[string]int64{}, leafs: map[string]int64{}}
	for _, s := range samples {
		p.total += s.ns
		layer, leaf := "", ""
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				n := name(fn)
				if leaf == "" {
					leaf = n
				}
				if layer = layerOf(n); layer != "" {
					break walk
				}
			}
		}
		p.self[layer] += s.ns
		p.leafs[leaf] += s.ns
	}
	return p, nil
}

// pbFields walks the top-level fields of a protobuf message, handing each
// varint (wire type 0) as v and each length-delimited field (wire type 2)
// as b. Fixed-width fields are skipped.
func pbFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := pbVarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbUints appends a repeated varint field's values, packed (b != nil) or
// not.
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
