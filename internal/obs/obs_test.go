package obs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests.", Label{Name: "code", Value: "200"})
	c.Add(3)
	r.Counter("requests_total", "Requests.", Label{Name: "code", Value: "500"}).Inc()
	g := r.Gauge("inflight", "In flight.")
	g.Set(2)
	g.Dec()
	r.GaugeFunc("uptime", "Uptime.", nil, func() float64 { return 1.5 })

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total Requests.",
		"# TYPE requests_total counter",
		`requests_total{code="200"} 3`,
		`requests_total{code="500"} 1`,
		"# TYPE inflight gauge",
		"inflight 1",
		"uptime 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSameSeriesIsShared(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", Label{Name: "k", Value: "v"})
	b := r.Counter("x_total", "X.", Label{Name: "k", Value: "v"})
	if a != b {
		t.Fatal("same (name, labels) did not resolve to the same series")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared series does not share state")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "Weird.", Label{Name: "p", Value: `a"b\c` + "\n"}).Inc()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `weird_total{p="a\"b\\c\n"} 1`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c_total", "C.").Inc()
				r.Histogram("h", "H.", []float64{1}).Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c_total", "C.").Value(); v != 8000 {
		t.Fatalf("counter = %v, want 8000", v)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `h_bucket{le="+Inf"} 8000`) {
		t.Errorf("histogram lost observations:\n%s", b.String())
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("one_total", "One.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "one_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestDiscardAndOr(t *testing.T) {
	// Must not panic and must report disabled at every level.
	l := Discard()
	l.Info("dropped")
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("discard logger claims to be enabled")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"Warn": slog.LevelWarn, "error": slog.LevelError,
		"bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", rec.Code)
	}
}
