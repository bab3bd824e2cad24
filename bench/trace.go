package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// spanKind names the call a span covers.
type spanKind uint8

const (
	kHTTPRequest spanKind = iota
	kClientBatch
	kClientSingle
	kFrame
	kTryQuery
	kTryQueryBatch
	kIndexDistance
	kIndexBatch
	kHubQuery
	kHubBatch
	numKinds
)

// kindInfo gives each kind its span name and its layer's depth in the
// stack (0 = outermost). A span's parent is the innermost span of a
// shallower layer that contains it.
var kindInfo = [numKinds]struct {
	name  string
	depth int
}{
	kHTTPRequest:   {"hubserve.GET", 0},
	kClientBatch:   {"hubclient.DistanceBatch", 0},
	kClientSingle:  {"hubclient.Distance", 0},
	kFrame:         {"netserve.frame", 1},
	kTryQuery:      {"server.TryQuery", 2},
	kTryQueryBatch: {"server.TryQueryBatch", 2},
	kIndexDistance: {"index.Distance", 3},
	kIndexBatch:    {"index.DistanceBatch", 3},
	kHubQuery:      {"hub.Query", 4},
	kHubBatch:      {"hub.QueryBatch", 4},
}

// span is one timed call: which layer, for which request, from when to
// when (nanoseconds since the tracer's base), covering how many
// queries. parent indexes the tracer's span slice (-1 for a root).
type span struct {
	kind       spanKind
	req        int32
	queries    int32
	parent     int32
	start, end int64
}

// tracer collects spans in memory. The traced replay has a single
// caller, so at any moment exactly one request is in flight and every
// span recorded — on whichever goroutine — belongs to it: cur is that
// request's id. Appending is one atomic add into preallocated storage.
type tracer struct {
	base    time.Time
	cur     atomic.Int32
	n       atomic.Int64
	spans   []span
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// record appends a finished span that started at start and ends now.
func (t *tracer) record(kind spanKind, start int64, queries int) {
	end := t.now()
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: kind, req: t.cur.Load(), queries: int32(queries), parent: -1, start: start, end: end}
}

// finish returns the recorded spans with parents assigned.
func (t *tracer) finish() []span {
	spans := t.spans[:min(t.n.Load(), int64(len(t.spans)))]
	assignParents(spans)
	return spans
}

// assignParents orders spans by request and start time and links each
// to the innermost containing span of a shallower layer in the same
// request.
func assignParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].req != spans[j].req {
			return spans[i].req < spans[j].req
		}
		return spans[i].start < spans[j].start
	})
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		for i := lo; i < hi; i++ {
			s := &spans[i]
			s.parent = -1
			best := -1
			for j := lo; j < hi; j++ {
				p := &spans[j]
				if kindInfo[p.kind].depth >= kindInfo[s.kind].depth || p.start > s.start || p.end < s.end {
					continue
				}
				if best < 0 || kindInfo[p.kind].depth > kindInfo[spans[best].kind].depth ||
					kindInfo[p.kind].depth == kindInfo[spans[best].kind].depth && p.start > spans[best].start {
					best = j
				}
			}
			s.parent = int32(best)
		}
		lo = hi
	}
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap one another (two shard workers serving
// one frame) and are clipped to the span.
func selfTime(s interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, s.start), min(c.end, s.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := int64(0), s.start
	for _, c := range cs {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return s.end - s.start - covered
}

// layerTotals sums, per span kind, the self time, span count and
// queries covered, over the spans of requests in [reqLo, reqHi).
type layerTotals [numKinds]struct {
	selfNS, durNS  int64
	spans, queries int64
}

func sumLayers(spans []span, reqLo, reqHi int32) *layerTotals {
	children := make(map[int32][]interval)
	for _, s := range spans {
		if s.parent >= 0 && s.req >= reqLo && s.req < reqHi {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	var lt layerTotals
	for i, s := range spans {
		if s.req < reqLo || s.req >= reqHi {
			continue
		}
		t := &lt[s.kind]
		t.selfNS += selfTime(interval{s.start, s.end}, children[int32(i)])
		t.durNS += s.end - s.start
		t.spans++
		t.queries += int64(s.queries)
	}
	return &lt
}

// writeSpans writes the span file: one JSON object with a "spans"
// array, each span {"name","req","queries","start_ns","end_ns",
// "parent"} with parent an index into the same array (-1 = root).
func writeSpans(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"workload":` + strconv.Quote(workload) + `,"spans":[`)
	var buf []byte
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"name\":"...)
		buf = strconv.AppendQuote(buf, kindInfo[s.kind].name)
		buf = append(buf, ",\"req\":"...)
		buf = strconv.AppendInt(buf, int64(s.req), 10)
		buf = append(buf, ",\"queries\":"...)
		buf = strconv.AppendInt(buf, int64(s.queries), 10)
		buf = append(buf, ",\"start_ns\":"...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ",\"end_ns\":"...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
