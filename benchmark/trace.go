package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// spans records the traced run in memory: one span around each call into a
// layer's public entry point, made from the benchmark's own code. Stream.Next
// runs once per simulated instruction, so its calls are counted and timed in
// aggregate instead of one span each. A nil *spans records nothing.
type spans struct {
	t0        time.Time
	list      []span
	nextCalls uint64
	nextNS    int64
}

type span struct {
	name       string
	parent     int // index into list; -1 for a root
	start, end time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{name: name, parent: parent, start: time.Since(s.t0)})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].end = time.Since(s.t0)
}

func (s *spans) nextTotal() int64 {
	if s == nil {
		return 0
	}
	return s.nextNS
}

// wrap returns st with every Next call timed into s.
func (s *spans) wrap(st trace.Stream) trace.Stream { return &timedStream{s: st, sp: s} }

type timedStream struct {
	s  trace.Stream
	sp *spans
}

func (t *timedStream) Next(in *trace.Instr) bool {
	start := time.Now()
	ok := t.s.Next(in)
	t.sp.nextNS += int64(time.Since(start))
	t.sp.nextCalls++
	return ok
}

// write prints, per span name, the call count, total time and self time
// (total minus the time of child spans; System.Run's children are its
// Stream.Next calls).
func (s *spans) write(w io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	child := make([]time.Duration, len(s.list))
	for _, sp := range s.list {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	var names []string
	for i, sp := range s.list {
		a := by[sp.name]
		if a == nil {
			a = &agg{}
			by[sp.name] = a
			names = append(names, sp.name)
		}
		a.n++
		a.total += sp.end - sp.start
		a.self += sp.end - sp.start - child[i]
	}
	if a := by["System.Run"]; a != nil {
		a.self -= time.Duration(s.nextNS)
	}
	fmt.Fprintf(w, "%-20s %10s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(w, "%-20s %10d %12.1f %12.1f\n", name, a.n, ms(a.total), ms(a.self))
	}
	if s.nextCalls > 0 {
		fmt.Fprintf(w, "%-20s %10d %12.1f %12.1f\n", "Stream.Next", s.nextCalls, float64(s.nextNS)/1e6, float64(s.nextNS)/1e6)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// profileLayers are the modules whose self time the traced run reports, as
// <module>.self_frac.
var profileLayers = []string{
	"cpu", "core", "cache", "memsys", "tlb", "coherence", "mesh",
	"sched", "bpred", "workload", "runtime",
}

// layerOf maps a Go package path to the module its self time is charged to:
// a simulator package by name, the workload generators with the db engine
// and the trace format, the Go runtime (collector, maps, scheduler) with
// the runtime's internal packages. Everything else is "other".
func layerOf(pkg string) string {
	if p, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch {
		case p == "db" || p == "trace" || p == "workload" || strings.HasPrefix(p, "workload/"):
			return "workload"
		case !strings.Contains(p, "/"):
			for _, l := range profileLayers {
				if p == l {
					return p
				}
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf returns the package path of a symbol name such as
// "repro/internal/cpu.(*Core).Tick". Symbols without a package, such as
// aeshashbody and memeqbody, are the runtime's assembly routines.
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// wrapperFrame is the traced run's Stream.Next wrapper as profiles name it:
// main.(*timedStream).Next, or under its import path in a test binary.
var wrapperFrame = runtime.FuncForPC(reflect.ValueOf((*timedStream).Next).Pointer()).Name()

// profileSelf decodes a gzipped pprof CPU profile and sums each sample's CPU
// time into the package of its leaf (innermost named) function. Samples
// taken in the Stream.Next wrapper's own code, the wrapper and the clock
// reads it makes, are summed into instr instead.
func profileSelf(prof []byte) (byPkg map[string]float64, instr float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		t    int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					locs, err = appendVarints(locs, v, b)
				case 2:
					vals, err = appendVarints(vals, v, b)
				}
				return err
			})
			if err == nil && len(vals) > 0 {
				samples = append(samples, sample{locs, int64(vals[len(vals)-1])})
			}
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
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
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
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
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	byPkg = map[string]float64{}
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i, ok := funcName[f]; ok && i < uint64(len(strs)) && strs[i] != "" {
					frames = append(frames, strs[i])
				}
			}
		}
		switch {
		case inWrapper(frames):
			instr += float64(s.t)
		case len(frames) == 0:
			byPkg["runtime"] += float64(s.t)
		default:
			byPkg[packageOf(frames[0])] += float64(s.t)
		}
	}
	return byPkg, instr, nil
}

// inWrapper reports whether a stack, innermost frame first, is running
// the Stream.Next wrapper's own code rather than the stream it wraps.
func inWrapper(frames []string) bool {
	for _, f := range frames {
		if f == wrapperFrame {
			return true
		}
		if layerOf(packageOf(f)) == "workload" {
			return false
		}
	}
	return false
}

var errProto = errors.New("malformed protobuf")

// protoFields calls f for each field of protobuf message b: v holds a
// varint or fixed-width value, b a length-delimited one.
func protoFields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var body []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := f(int(key>>3), v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// selfFracs turns a profile into <module>.self_frac metrics and prints the
// full split to standard error, with the packages charged to "other". The
// samples of the traced run's own instrumentation are left out: their cost
// is what trace.overhead_frac reports.
func selfFracs(prof []byte, out map[string]metric) error {
	byPkg, instr, err := profileSelf(prof)
	if err != nil {
		return err
	}
	by := map[string]float64{}
	var total float64
	var others []string
	for pkg, t := range byPkg {
		l := layerOf(pkg)
		by[l] += t
		total += t
		if l == "other" {
			others = append(others, pkg)
		}
	}
	if total == 0 {
		return errors.New("profile: no samples")
	}
	fmt.Fprintf(os.Stderr, "profile: %.2f s of samples, %.4f of them in the instrumentation; self time share:", (total+instr)/1e9, instr/(total+instr))
	for _, l := range append(append([]string(nil), profileLayers...), "other") {
		fmt.Fprintf(os.Stderr, " %s=%.4f", l, by[l]/total)
	}
	sort.Slice(others, func(i, j int) bool { return byPkg[others[i]] > byPkg[others[j]] })
	fmt.Fprint(os.Stderr, "\nprofile: other =")
	for _, pkg := range others {
		fmt.Fprintf(os.Stderr, " %s=%.4f", pkg, byPkg[pkg]/total)
	}
	fmt.Fprintln(os.Stderr)
	for _, l := range profileLayers {
		out[l+".self_frac"] = metric{by[l] / total, "ratio"}
	}
	return nil
}
