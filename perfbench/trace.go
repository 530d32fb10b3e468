package main

import (
	"sort"
	"time"
)

// spanRec is one traced interval: a call into a layer's public
// function, or a whole op. Times are wall-clock Unix nanoseconds, so
// spans recorded by different processes on the host merge on one axis.
// Op is the trace ID shared by every span of one benchmark op.
type spanRec struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index in the same slice; -1 for a root
}

// tracer keeps one goroutine's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	spans []spanRec
}

func nowNS() int64 { return time.Now().UnixNano() }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, spanRec{Name: name, Op: op, Start: nowNS(), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = nowNS()
}

// add records an already-timed span.
func (t *tracer) add(name string, op, parent int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, spanRec{Name: name, Op: op, Start: start, End: end, Parent: parent})
	return len(t.spans) - 1
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover (overlapping children count once,
// and a child poking outside its parent is clipped to it).
func selfTimes(spans []spanRec) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(kids[i], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range c {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
