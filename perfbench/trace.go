package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one grid point share
// Point; a pass's root span has Point -1.
type span struct {
	Point  int64  `json:"point"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call boundary.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	point int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), point: -1} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Point: t.point, Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// unwind closes span i and every span still open inside it.
func (t *tracer) unwind(i int) {
	if t == nil {
		return
	}
	for len(t.stack) > 0 && t.stack[len(t.stack)-1] >= i {
		t.end(t.stack[len(t.stack)-1])
	}
}

// selfTimes sums, by span name, each span's duration minus the time its
// direct children cover, over the spans from index `from` on.
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	child := make([]int64, len(t.spans)-from)
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p >= from {
			child[p-from] += t.spans[i].End - t.spans[i].Start
		}
	}
	out := make(map[string]time.Duration)
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		out[s.Name] += time.Duration(s.End - s.Start - child[i-from])
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
