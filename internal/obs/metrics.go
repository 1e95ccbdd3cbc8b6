package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an ordered set of label name/value pairs attached to one
// metric series, e.g. Labels{{"path", "/v1/analyze"}, {"code", "200"}}.
// Order is preserved into the rendered output.
type Labels []Label

// Label is one name/value pair of a series' label set.
type Label struct {
	// Name is the label name (must match [a-zA-Z_][a-zA-Z0-9_]*).
	Name string
	// Value is the label value; rendered escaped, so any string works.
	Value string
}

// L is shorthand for building a Labels list from alternating name/value
// strings: L("path", "/v1/analyze", "code", "200"). It panics on an odd
// argument count — label sets are static call sites, not data.
func L(nv ...string) Labels {
	if len(nv)%2 != 0 {
		panic("obs: L requires name/value pairs")
	}
	ls := make(Labels, 0, len(nv)/2)
	for i := 0; i < len(nv); i += 2 {
		ls = append(ls, Label{Name: nv[i], Value: nv[i+1]})
	}
	return ls
}

// key renders the label set into the canonical series key used both for
// lookup and for the exposition output ({} when empty).
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format label escaping (backslash,
// double quote, newline).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing series. The zero value is
// usable, but counters are normally created through Registry.Counter so
// they render on /metrics.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative v panics (counters only go
// up — use a Gauge for values that can fall).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decrease")
	}
	for {
		old := c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a series that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increases (or, with negative v, decreases) the gauge by v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a cumulative-bucket histogram series.
type Histogram struct {
	bounds []float64 // upper bounds, ascending, +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge // atomic float accumulator (only ever added to)
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// DefBuckets is the default histogram bucketing, in seconds — the usual
// latency spread from 1 ms to ~100 s.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 100,
}

// metricKind discriminates the family types in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// series is one labeled instance inside a family.
type series struct {
	labels Labels
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family is all series sharing one metric name, help string and type.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string           // series keys in registration order
	series map[string]*series // key → series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup finds or creates the family and series for (name, labels),
// enforcing that a name is never reused with a different kind. init runs
// under the registry lock so concurrent first resolutions of one series
// initialize its payload exactly once.
func (r *Registry) lookup(name, help string, kind metricKind, labels Labels, init func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different type", name))
	}
	k := labels.key()
	s := f.series[k]
	if s == nil {
		s = &series{labels: labels}
		f.series[k] = s
		f.order = append(f.order, k)
	}
	if init != nil {
		init(s)
	}
	return s
}

// Counter returns the counter named name with the given label set,
// creating it on first use. Repeated calls with the same (name, labels)
// return the same underlying series, so call sites may re-resolve
// per request without duplicating output.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, Labels(labels), func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
	})
	return s.c
}

// Gauge returns the gauge named name with the given label set, creating
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, Labels(labels), func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
	})
	return s.g
}

// GaugeFunc registers a callback gauge: fn is invoked at render time,
// so the series always exposes the live value (pool statistics,
// goroutine counts, uptime). Registering the same (name, labels) twice
// replaces the callback.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, kindGaugeFunc, labels, func(s *series) {
		s.fn = fn
	})
}

// Histogram returns the histogram named name with the given label set
// and upper bucket bounds (ascending; the +Inf bucket is implicit; nil
// selects DefBuckets), creating it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, Labels(labels), func(s *series) {
		if s.h != nil {
			return
		}
		b := buckets
		if b == nil {
			b = DefBuckets
		}
		s.h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
	})
	return s.h
}

// WritePrometheus renders every registered family in the text
// exposition format (HELP and TYPE headers followed by the series in
// registration order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		typ := "counter"
		switch f.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
			return err
		}
		for _, k := range f.order {
			if err := writeSeries(w, f, f.series[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series of f.
func writeSeries(w io.Writer, f *family, s *series) error {
	lk := s.labels.key()
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, lk, formatValue(s.c.Value()))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, lk, formatValue(s.g.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, lk, formatValue(s.fn()))
		return err
	case kindHistogram:
		h := s.h
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				withLE(s.labels, formatValue(b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			withLE(s.labels, "+Inf"), h.count.Load()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, lk, formatValue(h.sum.Value())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, lk, h.count.Load())
		return err
	}
	return nil
}

// withLE renders a label key with the histogram "le" bound appended.
func withLE(ls Labels, le string) string {
	all := make(Labels, len(ls), len(ls)+1)
	copy(all, ls)
	all = append(all, Label{Name: "le", Value: le})
	return all.key()
}

// formatValue renders a sample value the way Prometheus expects:
// integral values without an exponent, everything else in Go's shortest
// round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Handler returns an http.Handler serving the registry in the text
// exposition format — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, b.String())
	})
}
