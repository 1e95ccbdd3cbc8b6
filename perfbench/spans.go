package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans of one analysis or append share Op; Parent 0 marks a
// root. Probe spans hang under their own "probes" root, so they never
// count toward an analysis's blocking path.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; write saves them once the run ends.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	id := len(t.spans) + 1
	now := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Seconds() }

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, op int, fn func()) float64 {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
	return t.spans[id-1].dur()
}

// selfTime is span id's duration minus the part of it its direct
// children cover; overlapping children are counted once and clipped to
// the parent's interval.
func selfTime(spans []span, id int) float64 {
	var parent span
	var ivs [][2]float64
	for _, s := range spans {
		switch {
		case s.ID == id:
			parent = s
		case s.Parent == id:
			ivs = append(ivs, [2]float64{s.Start, s.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered, lo, hi := 0.0, parent.Start, parent.Start
	for _, iv := range ivs {
		a, b := max(iv[0], parent.Start), min(iv[1], parent.End)
		if b <= a {
			continue
		}
		if a > hi {
			covered += hi - lo
			lo, hi = a, b
		} else if b > hi {
			hi = b
		}
	}
	covered += hi - lo
	return parent.dur() - covered
}

// selfTimes lists the self time of every span called name.
func (t *tracer) selfTimes(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, selfTime(t.spans, s.ID))
		}
	}
	return out
}

// blockingTotals lists, per root span called name, the time its
// children cover: the layer calls on that operation's blocking path.
func (t *tracer) blockingTotals(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent == 0 {
			out = append(out, s.dur()-selfTime(t.spans, s.ID))
		}
	}
	return out
}

// write saves the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
