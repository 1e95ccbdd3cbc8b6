package foldsvc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/trace"
)

// postAnalyze uploads enc to the server and returns the status, the
// Cache-Status header and the body.
func postAnalyze(t *testing.T, base, query string, enc []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyze"+query, "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Cache-Status"), body
}

// TestCacheEquivalence is the acceptance gate for the result cache:
// for every analysis path — strict and lenient on a single node, plus
// the coordinator-sharded path — the cached Report must be
// byte-identical to the freshly computed one (?nocache=1), and a
// repeat request must hit. `make check` runs this test explicitly.
func TestCacheEquivalence(t *testing.T) {
	_, enc := genTrace(t, 4, 40)
	srv := httptest.NewServer(NewServer(Config{Jobs: 16}))
	defer srv.Close()

	// Decode mode (lenient) is part of the key, so each mode misses
	// once. The *-columnar requests carry the columnar= knob old clients
	// may still send: it is an unknown parameter now, ignored, so they
	// HIT the entry the plain request stored.
	for _, tc := range []struct{ name, query, first string }{
		{"strict", "", "miss"},
		{"strict-columnar", "columnar=1", "hit"},
		{"lenient", "lenient=1", "miss"},
		{"lenient-columnar", "lenient=1&columnar=1", "hit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, cs, fresh := postAnalyze(t, srv.URL, "?"+tc.query+"&nocache=1", enc)
			if code != http.StatusOK {
				t.Fatalf("nocache status %d: %s", code, fresh)
			}
			if cs != "" {
				t.Fatalf("nocache request got Cache-Status %q; want none", cs)
			}
			code, cs, miss := postAnalyze(t, srv.URL, "?"+tc.query, enc)
			if code != http.StatusOK || cs != tc.first {
				t.Fatalf("first cached request: status %d, Cache-Status %q; want %q", code, cs, tc.first)
			}
			code, cs, hit := postAnalyze(t, srv.URL, "?"+tc.query, enc)
			if code != http.StatusOK || cs != "hit" {
				t.Fatalf("second cached request: status %d, Cache-Status %q", code, cs)
			}
			if !bytes.Equal(miss, hit) {
				t.Fatal("hit body differs from first cached body")
			}
			// The fresh body differs only in the run-varying Pipeline
			// stage metrics; everything semantic must be deep-equal
			// (bit-identical floats survive the JSON round trip).
			if got, want := asGeneric(t, hit), asGeneric(t, fresh); !reflect.DeepEqual(got, want) {
				for k := range want {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Errorf("cached report field %s differs from fresh", k)
					}
				}
				t.Fatal("cached report differs from fresh analysis")
			}
		})
	}

	// The coordinator-sharded path shares the same key shape as the
	// single-node server (TestShardedEquivalence locks bit-identical
	// reports for any shard count) — verify its cached report against a
	// fresh single-node analysis.
	t.Run("sharded", func(t *testing.T) {
		workers := newWorkerFarm(t, 3)
		coord := httptest.NewServer(NewServer(Config{Workers: workers, Shards: 3, Jobs: 16}))
		defer coord.Close()

		_, _, fresh := postAnalyze(t, srv.URL, "?nocache=1", enc)
		code, cs, miss := postAnalyze(t, coord.URL, "", enc)
		if code != http.StatusOK || cs != "miss" {
			t.Fatalf("coordinated miss: status %d, Cache-Status %q", code, cs)
		}
		code, cs, hit := postAnalyze(t, coord.URL, "", enc)
		if code != http.StatusOK || cs != "hit" {
			t.Fatalf("coordinated hit: status %d, Cache-Status %q", code, cs)
		}
		if !bytes.Equal(miss, hit) {
			t.Fatal("coordinated hit body differs from miss body")
		}
		if got, want := asGeneric(t, hit), asGeneric(t, fresh); !reflect.DeepEqual(got, want) {
			t.Fatal("coordinated cached report differs from single-node fresh analysis")
		}
	})
}

// gatedBody streams all of enc except the last byte, then blocks until
// release is closed — so N concurrent uploads can be held mid-spool
// and released together, guaranteeing they all land on one in-flight
// computation.
type gatedBody struct {
	head    io.Reader
	tail    byte
	release <-chan struct{}
	done    bool
}

func (g *gatedBody) Read(p []byte) (int, error) {
	if n, err := g.head.Read(p); n > 0 || err != io.EOF {
		return n, err
	}
	if g.done {
		return 0, io.EOF
	}
	<-g.release
	g.done = true
	p[0] = g.tail
	return 1, nil
}

// TestCacheSingleflight is the coalescing acceptance test: 16
// goroutines upload the same trace concurrently, exactly one pipeline
// run happens (stage metrics), every response is byte-identical, and
// foldsvc_cache_coalesced_total ends at N-1. Run under -race by
// `make check`.
func TestCacheSingleflight(t *testing.T) {
	_, enc := genTrace(t, 4, 60)
	srv := httptest.NewServer(NewServer(Config{Jobs: 32}))
	defer srv.Close()

	const n = 16
	release := make(chan struct{})
	type result struct {
		code   int
		status string
		body   []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := &gatedBody{
				head:    bytes.NewReader(enc[:len(enc)-1]),
				tail:    enc[len(enc)-1],
				release: release,
			}
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/analyze", body)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = result{resp.StatusCode, resp.Header.Get("Cache-Status"), data}
		}(i)
	}

	// Hold the gate until all 16 uploads are in flight (spooling their
	// bodies), then let them finish together: the followers reach the
	// cache within microseconds of the leader, far inside the leader's
	// pipeline run.
	waitFor(t, "all uploads in flight", func() bool {
		return metricValue(t, srv.URL, "foldsvc_inflight_jobs") == n
	})
	close(release)
	wg.Wait()

	var miss, coalesced int
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.code, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d body differs", i)
		}
		switch r.status {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("request %d: Cache-Status %q", i, r.status)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Fatalf("%d misses, %d coalesced; want 1 and %d", miss, coalesced, n-1)
	}
	if got := metricValue(t, srv.URL, "foldsvc_analyze_requests_total"); got != 1 {
		t.Fatalf("foldsvc_analyze_requests_total = %g; want exactly one pipeline run", got)
	}
	if got := metricValue(t, srv.URL, `foldsvc_cache_coalesced_total`); got != n-1 {
		t.Fatalf("foldsvc_cache_coalesced_total = %g; want %d", got, n-1)
	}
	if got := metricValue(t, srv.URL, `foldsvc_cache_misses_total`); got != 1 {
		t.Fatalf("foldsvc_cache_misses_total = %g; want 1", got)
	}
}

// TestCachePartialWorker covers the worker-side shard cache: a
// /v1/partial request that declares its content digest is cached (the
// repeat answers without re-running the map), and a request whose body
// does not match the declared digest is served but never stored.
func TestCachePartialWorker(t *testing.T) {
	_, enc := genTrace(t, 2, 30)
	srv := httptest.NewServer(NewServer(Config{Jobs: 4}))
	defer srv.Close()

	digest := trace.DigestBytes(enc)
	query := "?shard=0&shards=1&digest=" + digest

	post := func(q string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/partial"+q, "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Cache-Status"), body
	}

	code, cs, miss := post(query)
	if code != http.StatusOK || cs != "miss" {
		t.Fatalf("first partial: status %d, Cache-Status %q: %s", code, cs, miss)
	}
	code, cs, hit := post(query)
	if code != http.StatusOK || cs != "hit" {
		t.Fatalf("second partial: status %d, Cache-Status %q", code, cs)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatal("cached partial differs from computed partial")
	}
	if got := metricValue(t, srv.URL, "foldsvc_partials_total"); got != 1 {
		t.Fatalf("foldsvc_partials_total = %g; want 1 (hit must not re-map)", got)
	}

	// A mislabeled upload: the declared digest does not match the body.
	// The partial is still computed and served, but poisoning the key is
	// refused — the same declaration misses again and re-maps.
	wrong := "?shard=0&shards=1&digest=" + trace.DigestBytes([]byte("not the shard"))
	if code, cs, _ := post(wrong); code != http.StatusOK || cs != "miss" {
		t.Fatalf("mismatched digest: status %d, Cache-Status %q", code, cs)
	}
	if code, cs, _ := post(wrong); code != http.StatusOK || cs != "miss" {
		t.Fatalf("mismatched digest repeat: status %d, Cache-Status %q (entry was stored)", code, cs)
	}
	if got := metricValue(t, srv.URL, "foldsvc_partials_total"); got != 3 {
		t.Fatalf("foldsvc_partials_total = %g; want 3", got)
	}

	// Without a declared digest the cache is bypassed entirely.
	if code, cs, _ := post("?shard=0&shards=1"); code != http.StatusOK || cs != "" {
		t.Fatalf("undeclared digest: status %d, Cache-Status %q; want no header", code, cs)
	}
}

// TestCacheDiskTier proves warm state survives a restart: a second
// server instance sharing the same -cache-dir serves a hit for a trace
// only the first instance analyzed.
func TestCacheDiskTier(t *testing.T) {
	_, enc := genTrace(t, 2, 30)
	dir := t.TempDir()

	first := httptest.NewServer(NewServer(Config{Jobs: 4, CacheDir: dir}))
	code, cs, miss := postAnalyze(t, first.URL, "", enc)
	first.Close()
	if code != http.StatusOK || cs != "miss" {
		t.Fatalf("first instance: status %d, Cache-Status %q", code, cs)
	}

	second := httptest.NewServer(NewServer(Config{Jobs: 4, CacheDir: dir}))
	defer second.Close()
	code, cs, hit := postAnalyze(t, second.URL, "", enc)
	if code != http.StatusOK || cs != "hit" {
		t.Fatalf("second instance: status %d, Cache-Status %q", code, cs)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatal("disk-tier hit differs from original response")
	}
	if got := metricValue(t, second.URL, `foldsvc_cache_hits_total{tier="disk"}`); got != 1 {
		t.Fatalf(`foldsvc_cache_hits_total{tier="disk"} = %g; want 1`, got)
	}
	if got := metricValue(t, second.URL, "foldsvc_analyze_requests_total"); got != 0 {
		t.Fatalf("second instance ran %g analyses; want 0", got)
	}
}

// TestCacheNocacheBypass: ?nocache=1 requests never read or write the
// cache — every one runs the pipeline and none carries a Cache-Status
// header.
func TestCacheNocacheBypass(t *testing.T) {
	_, enc := genTrace(t, 2, 30)
	srv := httptest.NewServer(NewServer(Config{Jobs: 4}))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		code, cs, body := postAnalyze(t, srv.URL, "?nocache=1", enc)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		if cs != "" {
			t.Fatalf("request %d: Cache-Status %q; want none", i, cs)
		}
	}
	if got := metricValue(t, srv.URL, "foldsvc_analyze_requests_total"); got != 2 {
		t.Fatalf("foldsvc_analyze_requests_total = %g; want 2 (no caching)", got)
	}
	if got := metricValue(t, srv.URL, "foldsvc_cache_misses_total"); got != 0 {
		t.Fatalf("foldsvc_cache_misses_total = %g; want 0", got)
	}
}

// TestCacheDisabled: a negative CacheMaxBytes turns the cache off
// entirely — requests behave exactly as before the cache existed.
func TestCacheDisabled(t *testing.T) {
	_, enc := genTrace(t, 2, 30)
	srv := httptest.NewServer(NewServer(Config{Jobs: 4, CacheMaxBytes: -1}))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		code, cs, body := postAnalyze(t, srv.URL, "", enc)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		if cs != "" {
			t.Fatalf("request %d: Cache-Status %q; want none", i, cs)
		}
	}
	if got := metricValue(t, srv.URL, "foldsvc_analyze_requests_total"); got != 2 {
		t.Fatalf("foldsvc_analyze_requests_total = %g; want 2", got)
	}
}
