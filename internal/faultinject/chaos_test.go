// Chaos suite: drives full traces through the batch, streaming, and
// HTTP analysis paths under injected I/O faults and asserts the
// system-wide robustness contract — every fault yields either a
// degraded report with accurate salvage statistics or a cleanly
// wrapped error; never a panic and never a hang.
package faultinject_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/faultinject"
	"repro/internal/foldsvc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// encodedTrace simulates a featured run once and returns its encoding.
func encodedTrace(t *testing.T) []byte {
	t.Helper()
	app, err := apps.ByName("stencil", 30)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(2), app)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// headerLen locates the end of the UVT1 header (magic + uvarint length
// + metadata JSON) so faults can target the record sections.
func headerLen(t *testing.T, enc []byte) int64 {
	t.Helper()
	n, k := binary.Uvarint(enc[4:])
	if k <= 0 {
		t.Fatal("cannot parse the metadata length")
	}
	return int64(4 + k + int(n))
}

// hangGuard runs fn with a deadline; a hang is the one failure the
// chaos contract can't tolerate at all.
func hangGuard(t *testing.T, fn func() (*core.Report, error)) (*core.Report, error) {
	t.Helper()
	type result struct {
		rep *core.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := fn()
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(60 * time.Second):
		t.Fatal("analysis hung under fault injection")
		return nil, nil
	}
}

// checkContract asserts the robustness contract on one outcome: clean
// error, or a report whose Degraded flag matches its decode stats.
func checkContract(t *testing.T, rep *core.Report, err error) {
	t.Helper()
	if err != nil {
		if rep != nil {
			t.Error("error alongside a non-nil report")
		}
		return
	}
	if rep == nil {
		t.Fatal("nil report without error")
	}
	if rep.Decode != nil {
		damaged := rep.Decode.Dropped() > 0 || rep.Decode.Truncated || rep.Decode.BadSections > 0
		if damaged && !rep.Degraded {
			t.Errorf("decode damage %+v but report not Degraded", rep.Decode)
		}
		if damaged && len(rep.Warnings) == 0 {
			t.Error("decode damage reported without warnings")
		}
	}
	if rep.Degraded && len(rep.Warnings) == 0 {
		t.Error("Degraded report carries no warnings")
	}
	// A degraded report must still serialize — the daemon ships JSON.
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}
}

// faultCases enumerates the reader faults the suite drives through
// every path. Each returns a fresh faulted reader over enc.
func faultCases(enc []byte, header int64) map[string]func() io.Reader {
	n := int64(len(enc))
	return map[string]func() io.Reader{
		"truncate-25%": func() io.Reader { return faultinject.Truncate(bytes.NewReader(enc), n/4) },
		"truncate-60%": func() io.Reader { return faultinject.Truncate(bytes.NewReader(enc), n*3/5) },
		"truncate-95%": func() io.Reader { return faultinject.Truncate(bytes.NewReader(enc), n*19/20) },
		"truncate-mid-header": func() io.Reader {
			return faultinject.Truncate(bytes.NewReader(enc), header/2)
		},
		"bitflip-records-sparse": func() io.Reader {
			return faultinject.BitFlip(bytes.NewReader(enc), 1, 509, header)
		},
		"bitflip-records-dense": func() io.Reader {
			return faultinject.BitFlip(bytes.NewReader(enc), 2, 61, header)
		},
		"bitflip-everything": func() io.Reader {
			return faultinject.BitFlip(bytes.NewReader(enc), 3, 127, 0)
		},
		"short-reads": func() io.Reader { return faultinject.ShortReads(bytes.NewReader(enc), 4) },
		"short-reads+truncate": func() io.Reader {
			return faultinject.ShortReads(faultinject.Truncate(bytes.NewReader(enc), n/2), 5)
		},
		"transient-errors": func() io.Reader {
			return faultinject.TransientEvery(bytes.NewReader(enc), 37)
		},
		"empty": func() io.Reader { return bytes.NewReader(nil) },
	}
}

func TestChaosStreamingAnalysis(t *testing.T) {
	enc := encodedTrace(t)
	header := headerLen(t, enc)
	for name, mk := range faultCases(enc, header) {
		for _, lenient := range []bool{false, true} {
			mode := "strict"
			if lenient {
				mode = "lenient"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				rep, err := hangGuard(t, func() (*core.Report, error) {
					return core.AnalyzeStreamContext(context.Background(), mk(), core.Options{Lenient: lenient})
				})
				checkContract(t, rep, err)
			})
		}
	}
}

func TestChaosBatchDecode(t *testing.T) {
	enc := encodedTrace(t)
	header := headerLen(t, enc)
	for name, mk := range faultCases(enc, header) {
		t.Run(name, func(t *testing.T) {
			data, err := io.ReadAll(transientTolerant(mk()))
			if err != nil {
				t.Fatalf("reading faulted bytes: %v", err)
			}
			tr, st, err := trace.ReadFromLenient(bytes.NewReader(data))
			if err != nil {
				// Header-level damage stays fatal; the error must wrap the
				// format sentinel, not escape as a panic or a raw io error.
				if !errors.Is(err, trace.ErrBadFormat) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
					t.Fatalf("unwrapped decode error: %v", err)
				}
				return
			}
			// Whatever was salvaged must analyze end to end.
			rep, aerr := hangGuard(t, func() (*core.Report, error) {
				rep, aerr := core.AnalyzeContext(context.Background(), tr, core.Options{Lenient: true})
				if aerr == nil {
					rep.NoteDecode(st)
				}
				return rep, aerr
			})
			checkContract(t, rep, aerr)
			if aerr == nil && st.Degraded() && !rep.Degraded {
				t.Error("salvage damage lost on the batch path")
			}
		})
	}
}

// transientTolerant retries reads through injected transient failures
// so the batch path (which needs all bytes up front) can proceed.
func transientTolerant(r io.Reader) io.Reader {
	return readerFunc(func(p []byte) (int, error) {
		for {
			n, err := r.Read(p)
			if errors.Is(err, faultinject.ErrTransient) && n == 0 {
				continue
			}
			return n, err
		}
	})
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

func TestChaosHTTPUploads(t *testing.T) {
	enc := encodedTrace(t)
	header := headerLen(t, enc)
	srv := httptest.NewServer(foldsvc.NewServer(foldsvc.Config{}))
	defer srv.Close()

	for name, mk := range faultCases(enc, header) {
		t.Run(name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				resp, err := http.Post(srv.URL+"/v1/analyze?lenient=1",
					"application/octet-stream", mk())
				if err != nil {
					// A transport-level abort (the faulted body reader
					// erred mid-upload) is a clean client-side failure.
					return
				}
				defer resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					var rep core.Report
					if derr := json.NewDecoder(resp.Body).Decode(&rep); derr != nil {
						t.Errorf("200 with undecodable report: %v", derr)
						return
					}
					checkContract(t, &rep, nil)
				case resp.StatusCode >= 400 && resp.StatusCode < 600:
					// Rejected cleanly.
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("HTTP upload hung under fault injection")
			}
		})
	}
	// The server must have survived every fault.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after chaos: %v", err)
	}
	resp.Body.Close()
}

func TestChaosSalvageAccuracy(t *testing.T) {
	// A 60% truncation must report Truncated with a plausible drop count,
	// and the salvaged record totals must stay below the originals.
	enc := encodedTrace(t)
	full, err := trace.ReadFrom(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hangGuard(t, func() (*core.Report, error) {
		r := faultinject.Truncate(bytes.NewReader(enc), int64(len(enc))*3/5)
		return core.AnalyzeStreamContext(context.Background(), r, core.Options{Lenient: true})
	})
	if err != nil {
		t.Fatalf("salvage failed: %v", err)
	}
	if !rep.Degraded || rep.Decode == nil || !rep.Decode.Truncated {
		t.Fatalf("truncation not reported: degraded=%v decode=%+v", rep.Degraded, rep.Decode)
	}
	kept := rep.Records.Events + rep.Records.Samples + rep.Records.Comms
	total := int64(len(full.Events) + len(full.Samples) + len(full.Comms))
	if kept == 0 || kept >= total {
		t.Fatalf("salvaged %d of %d records, want a proper prefix", kept, total)
	}
}

// TestChaosCoordinatorWorkerFaults drives a sharded analysis through a
// coordinator whose worker farm includes one misbehaving member — a
// worker that alternates hard 500s with accepted-then-stalled
// connections. The contract mirrors the single-daemon one: as long as
// any worker survives, the request answers 200 with a well-formed
// report (degraded with per-shard warnings if a shard was truly lost,
// complete if failover covered it); the coordinator itself never
// crashes or hangs.
func TestChaosCoordinatorWorkerFaults(t *testing.T) {
	enc := encodedTrace(t)

	var calls int64
	var mu sync.Mutex
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n%2 == 0 {
			time.Sleep(5 * time.Second) // past AttemptTimeout: a stall
			return
		}
		http.Error(w, "chaos", http.StatusInternalServerError)
	}))
	defer flaky.Close()

	// Explicit worker capacity: the coordinator fans shards out in
	// parallel, and a default worker on a 1-core runner (Jobs =
	// GOMAXPROCS = 1) would 429 concurrent shards.
	healthy := make([]string, 2)
	for i := range healthy {
		srv := httptest.NewServer(foldsvc.NewServer(foldsvc.Config{Jobs: 16}))
		defer srv.Close()
		healthy[i] = srv.URL
	}

	coord := httptest.NewServer(foldsvc.NewServer(foldsvc.Config{
		Workers: append(healthy, flaky.URL),
		Shards:  4,
		WorkerClient: foldsvc.ClientConfig{
			MaxAttempts:    1,
			BaseBackoff:    time.Millisecond,
			AttemptTimeout: 300 * time.Millisecond,
		},
	}))
	defer coord.Close()

	for round := 0; round < 3; round++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.Post(coord.URL+"/v1/analyze",
				"application/octet-stream", bytes.NewReader(enc))
			if err != nil {
				t.Errorf("round %d: coordinated request failed at transport level: %v", round, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("round %d: status %d with healthy workers available: %s",
					round, resp.StatusCode, body)
				return
			}
			var rep core.Report
			if derr := json.NewDecoder(resp.Body).Decode(&rep); derr != nil {
				t.Errorf("round %d: 200 with undecodable report: %v", round, derr)
				return
			}
			checkContract(t, &rep, nil)
			if len(rep.Phases) == 0 {
				t.Errorf("round %d: report carries no phases", round)
			}
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("coordinated analysis hung with a faulty worker in the farm")
		}
	}

	resp, err := http.Get(coord.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator unhealthy after chaos: %v", err)
	}
	resp.Body.Close()
}

// TestChaosUploadStall sends a single daemon and a coordinator, both
// with Config.Stall set, an upload that goes quiet halfway without
// disconnecting. Each must answer 408 and stay healthy, holding no job
// slot.
func TestChaosUploadStall(t *testing.T) {
	enc := encodedTrace(t)
	worker := httptest.NewServer(foldsvc.NewServer(foldsvc.Config{Jobs: 4}))
	defer worker.Close()

	const stall = 200 * time.Millisecond
	for _, tc := range []struct {
		name string
		cfg  foldsvc.Config
	}{
		{"daemon", foldsvc.Config{Stall: stall}},
		{"coordinator", foldsvc.Config{Stall: stall, Workers: []string{worker.URL}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(foldsvc.NewServer(tc.cfg))
			defer srv.Close()
			sr := faultinject.Stall(bytes.NewReader(enc), int64(len(enc))/2)
			defer sr.Release()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			// The transport returns only once its body read ends.
			defer context.AfterFunc(ctx, sr.Release)()

			req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/analyze", sr)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("stalled upload got no answer: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestTimeout {
				t.Fatalf("stalled upload: status %d, want 408", resp.StatusCode)
			}

			resp, err = http.Get(srv.URL + "/healthz")
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("daemon unhealthy after a stalled upload: %v", err)
			}
			resp.Body.Close()
			resp, err = http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			metrics, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(metrics), "\nfoldsvc_inflight_jobs 0\n") {
				t.Errorf("a job slot is still held after the 408:\n%s", metrics)
			}
		})
	}
}

// TestChaosDiffCorruptSide drives /v1/diff with a clean run A and a
// faulted run B: every fault must yield either a 200 whose diff report
// decodes (marking the damaged side degraded, with warnings) or a
// clean 4xx/5xx — never a panic, a hang, or a half-written body — and
// the daemon must stay healthy throughout.
func TestChaosDiffCorruptSide(t *testing.T) {
	enc := encodedTrace(t)
	header := headerLen(t, enc)
	srv := httptest.NewServer(foldsvc.NewServer(foldsvc.Config{}))
	defer srv.Close()

	for name, mk := range faultCases(enc, header) {
		t.Run(name, func(t *testing.T) {
			// Drain the faulted reader up front (tolerating its error):
			// the fault surface under test is the decoder behind the
			// diff route, not the HTTP transport.
			var damaged bytes.Buffer
			io.Copy(&damaged, mk()) //nolint:errcheck

			var body bytes.Buffer
			mw := multipart.NewWriter(&body)
			for _, side := range []struct {
				field string
				data  []byte
			}{{"a", enc}, {"b", damaged.Bytes()}} {
				fw, err := mw.CreateFormFile(side.field, side.field+".uvt")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fw.Write(side.data); err != nil {
					t.Fatal(err)
				}
			}
			mw.Close()

			done := make(chan struct{})
			go func() {
				defer close(done)
				resp, err := http.Post(srv.URL+"/v1/diff?lenient=1",
					mw.FormDataContentType(), &body)
				if err != nil {
					t.Errorf("transport error: %v", err)
					return
				}
				defer resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					var d diff.Report
					if derr := json.NewDecoder(resp.Body).Decode(&d); derr != nil {
						t.Errorf("200 with undecodable diff report: %v", derr)
						return
					}
					if d.DegradedB && len(d.Warnings) == 0 {
						t.Error("degraded side B reported without warnings")
					}
					if _, merr := json.Marshal(&d); merr != nil {
						t.Errorf("diff report does not re-marshal: %v", merr)
					}
				case resp.StatusCode >= 400 && resp.StatusCode < 600:
					// Rejected cleanly.
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("diff request hung under fault injection")
			}
		})
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after chaos: %v", err)
	}
	resp.Body.Close()
}
