package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"edisim/internal/netsim"
	"edisim/internal/sim"
)

// span is one timed call, kept in memory until the traced run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the workload's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer records spans around calls into the simulator's layers. A nil
// *tracer still times calls, so traced and untraced passes share one code
// path; only the traced one keeps spans.
type tracer struct {
	origin time.Time
	spans  []span
	root   spanRef
}

// spanRef is an open span: its index in tracer.spans (-1 when untraced) and
// when it started.
type spanRef struct {
	id int
	t0 time.Time
}

func newTracer(name string) *tracer {
	t := &tracer{origin: time.Now()}
	t.root = t.open(spanRef{id: -1}, name)
	return t
}

// rootRef is the workload span, the parent of every op span.
func (t *tracer) rootRef() spanRef {
	if t == nil {
		return spanRef{id: -1}
	}
	return t.root
}

func (t *tracer) open(parent spanRef, name string) spanRef {
	r := spanRef{id: -1, t0: time.Now()}
	if t != nil {
		r.id = len(t.spans)
		start := r.t0.Sub(t.origin).Nanoseconds()
		t.spans = append(t.spans, span{ID: r.id, Parent: parent.id, Name: name, Start: start, End: start})
	}
	return r
}

// close ends the span and returns its duration.
func (t *tracer) close(r spanRef) time.Duration {
	d := time.Since(r.t0)
	if t != nil && r.id >= 0 {
		t.spans[r.id].End = t.spans[r.id].Start + d.Nanoseconds()
	}
	return d
}

// write closes the root span and writes every span as one JSON array.
func (t *tracer) write(path string) error {
	t.close(t.root)
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// probe samples an engine's pending events and its fabric's active flows at
// a fixed simulated interval. It reschedules itself only while other events
// are pending, so an engine that runs until its queue drains still stops.
type probe struct {
	ticks       uint64
	pendingPeak int
	flowsPeak   int
}

func attachProbe(eng *sim.Engine, fab *netsim.Fabric, every float64) *probe {
	p := &probe{}
	var tick func()
	tick = func() {
		p.ticks++
		p.pendingPeak = max(p.pendingPeak, eng.Pending())
		p.flowsPeak = max(p.flowsPeak, fab.ActiveFlows())
		if eng.Pending() > 0 {
			eng.After(every, tick)
		}
	}
	eng.After(every, tick)
	return p
}

// note folds the probe's samples into the pass's layer stats.
func (p *probe) note(l *layerStats) {
	l.pendingPeak = max(l.pendingPeak, p.pendingPeak)
	l.flowsPeak = max(l.flowsPeak, p.flowsPeak)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuShares decodes a runtime/pprof CPU profile and returns each bucket's
// share of the samples. A sample whose stack passes through the garbage
// collector counts toward "gc"; any other sample counts toward the innermost
// edisim/internal/<pkg> frame of its stack, so the standard-library and
// runtime helpers a package calls count as that package's own time.
// Samples with no simulator frame count toward "other".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(data, func(num, typ int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(b, func(num, typ int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, typ, v, b)
				case 2:
					vals, err = appendUints(vals, typ, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.n = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, typ int, v uint64, _ []byte) error {
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
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, typ int, v uint64, _ []byte) error {
				switch num {
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
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	counts := map[string]int64{}
	var total int64
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		counts[bucket(frames)] += s.n
		total += s.n
	}
	shares := map[string]float64{}
	for k, n := range counts {
		shares[k] = float64(n) / float64(total)
	}
	return shares, nil
}

// gcRoots are the runtime functions through which garbage-collector work
// runs: background marking, mark assists charged to allocating goroutines,
// sweeping, scavenging and write-barrier flushes.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.deductSweepCredit": true,
	"runtime.wbBufFlush":        true,
}

// bucket attributes one sample's stack, innermost frame first.
func bucket(frames []string) string {
	for _, f := range frames {
		if gcRoots[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "edisim/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, typ int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if typ == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errors.New("unsupported protobuf wire type")
		}
		if err := fn(num, typ, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated integer field, packed or not.
func appendUints(dst []uint64, typ int, v uint64, b []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
