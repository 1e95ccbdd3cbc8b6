// Session chaos: kills the daemon mid-session (no drain, journals are
// all that survives), corrupts journal segments on disk, and points a
// consumer at the SSE stream that never reads — asserting the live
// session contract: a restarted daemon replays its journals to the
// exact state an uninterrupted run would have reached, damaged
// segments degrade to an honestly-warned prefix that client re-sends
// heal, and a stalled consumer never blocks the analysis path.
package faultinject_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/foldsvc"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sessionTrace simulates a run and splits it into session chunks.
func sessionTrace(t *testing.T, n int) (*trace.Trace, [][]byte) {
	t.Helper()
	app, err := apps.ByName("stencil", 40)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte
	for _, c := range session.Chunks(tr, n) {
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, buf.Bytes())
	}
	return tr, chunks
}

// sessionOpen opens a session over HTTP.
func sessionOpen(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/session", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		t.Fatalf("open session: %v (%+v)", err, out)
	}
	return out.ID
}

// sessionAppend POSTs one chunk and returns the HTTP status code.
func sessionAppend(t *testing.T, base, id string, seq int, chunk []byte) int {
	t.Helper()
	u := fmt.Sprintf("%s/v1/session/%s/append?seq=%d", base, id, seq)
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// sessionReport waits for the session to publish a snapshot covering
// every append, and returns it as a generic map.
func sessionReport(t *testing.T, s *foldsvc.Server, id string) map[string]any {
	t.Helper()
	sess, ok := s.Sessions().Get(id)
	if !ok {
		t.Fatalf("session %s not live", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sn, err := sess.Barrier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(sn.Data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// batchReport analyzes the full trace locally, as a generic map.
func batchReport(t *testing.T, tr *trace.Trace) map[string]any {
	t.Helper()
	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// compareReports deep-compares two generic reports ignoring the
// run-varying pipeline metrics; dropDegraded additionally ignores the
// warning channel (set when recovery had to salvage a prefix).
func compareReports(t *testing.T, got, want map[string]any, dropDegraded bool) {
	t.Helper()
	for _, m := range []map[string]any{got, want} {
		delete(m, "Pipeline")
		if dropDegraded {
			delete(m, "Warnings")
			delete(m, "Degraded")
		}
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	for k := range want {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("report field %s differs", k)
		}
	}
	t.Fatal("session report is not deep-equal to the uninterrupted batch report")
}

// segments lists the session's journal segment files, sorted.
func segments(t *testing.T, dir, id string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs = append(segs, filepath.Join(dir, id, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs
}

// TestChaosSessionKillRestart kills the daemon mid-session — no drain,
// no goodbye, only fsynced journals — restarts it over the same
// directory, re-sends everything (the client cannot know how far the
// dead daemon got; sequence numbers dedupe the overlap), and requires
// the final report to be byte-identical to an uninterrupted batch run.
func TestChaosSessionKillRestart(t *testing.T) {
	tr, chunks := sessionTrace(t, 6)
	dir := t.TempDir()

	srv1 := httptest.NewServer(foldsvc.NewServer(foldsvc.Config{SessionDir: dir}))
	id := sessionOpen(t, srv1.URL)
	half := len(chunks) / 2
	for i := 0; i < half; i++ {
		if code := sessionAppend(t, srv1.URL, id, i+1, chunks[i]); code != http.StatusOK {
			t.Fatalf("append %d: status %d", i+1, code)
		}
	}
	// kill -9: the listener dies with analyses possibly in flight;
	// nothing is flushed beyond what the acknowledged appends fsynced.
	srv1.CloseClientConnections()
	srv1.Close()

	s2 := foldsvc.NewServer(foldsvc.Config{SessionDir: dir})
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()

	// The session is back under its old id, rebuilt from the journal.
	resp, err := http.Get(srv2.URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st session.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Segments != half {
		t.Fatalf("recovered %d segments, want %d", st.Segments, half)
	}
	if len(st.Warnings) != 0 {
		t.Fatalf("clean recovery produced warnings: %v", st.Warnings)
	}

	// Re-send everything: the first half must dedupe, the rest applies.
	for i, c := range chunks {
		if code := sessionAppend(t, srv2.URL, id, i+1, c); code != http.StatusOK {
			t.Fatalf("re-append %d after restart: status %d", i+1, code)
		}
	}
	compareReports(t, sessionReport(t, s2, id), batchReport(t, tr), false)
}

// TestChaosSessionCorruptJournal damages one journal segment on disk —
// truncated tail or flipped header byte — and requires recovery to
// salvage the clean prefix with an explicit warning, then heal
// completely when the client re-sends its chunks.
func TestChaosSessionCorruptJournal(t *testing.T) {
	tr, chunks := sessionTrace(t, 5)

	corrupt := map[string]func(t *testing.T, seg string){
		"truncated-tail": func(t *testing.T, seg string) {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, data[:len(data)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bitflip-header": func(t *testing.T, seg string) {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[0] ^= 0x40 // break the magic: the decoder must reject, not misread
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	// Damage the last segment in one run and a middle one in the other:
	// the middle case also loses the clean segments behind it, since
	// replay cannot skip a hole.
	targets := map[string]int{"truncated-tail": len(chunks) - 1, "bitflip-header": 2}

	for name, breakSeg := range corrupt {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv1 := httptest.NewServer(foldsvc.NewServer(foldsvc.Config{SessionDir: dir}))
			id := sessionOpen(t, srv1.URL)
			for i, c := range chunks {
				if code := sessionAppend(t, srv1.URL, id, i+1, c); code != http.StatusOK {
					t.Fatalf("append %d: status %d", i+1, code)
				}
			}
			srv1.CloseClientConnections()
			srv1.Close()

			segs := segments(t, dir, id)
			if len(segs) != len(chunks) {
				t.Fatalf("found %d segments, want %d", len(segs), len(chunks))
			}
			breakSeg(t, segs[targets[name]])

			s2 := foldsvc.NewServer(foldsvc.Config{SessionDir: dir})
			srv2 := httptest.NewServer(s2)
			defer srv2.Close()

			resp, err := http.Get(srv2.URL + "/v1/session/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st session.Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if st.Segments != targets[name] {
				t.Fatalf("recovered %d segments, want the %d-segment clean prefix", st.Segments, targets[name])
			}
			found := false
			for _, w := range st.Warnings {
				if strings.Contains(w, "unreadable") {
					found = true
				}
			}
			if !found {
				t.Fatalf("salvaged recovery carries no unreadable-segment warning: %v", st.Warnings)
			}

			// The blind client re-sends everything; dedupe skips the
			// salvaged prefix and the re-appends overwrite the damage.
			for i, c := range chunks {
				if code := sessionAppend(t, srv2.URL, id, i+1, c); code != http.StatusOK {
					t.Fatalf("healing re-append %d: status %d", i+1, code)
				}
			}
			got := sessionReport(t, s2, id)
			// The salvage warning must survive into the published report.
			ws, _ := got["Warnings"].([]any)
			found = false
			for _, w := range ws {
				if s, ok := w.(string); ok && strings.Contains(s, "unreadable") {
					found = true
				}
			}
			if !found {
				t.Errorf("published report hides the recovery warning: %v", got["Warnings"])
			}
			compareReports(t, got, batchReport(t, tr), true)
		})
	}
}

// TestChaosSessionStalledSSEConsumer points a consumer at the events
// stream and never reads a byte, while the appender keeps going. The
// analysis path must keep publishing snapshots (the stalled subscriber
// is coalesced to latest-only, then disconnected by the write
// deadline) and the daemon must stay healthy.
func TestChaosSessionStalledSSEConsumer(t *testing.T) {
	tr, chunks := sessionTrace(t, 8)
	_ = tr
	s := foldsvc.NewServer(foldsvc.Config{SessionHeartbeat: 50 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	id := sessionOpen(t, srv.URL)

	// A consumer that connects and then stops reading entirely.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/session/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := (&http.Client{Transport: &http.Transport{ReadBufferSize: 256}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close() // never read before then

	sess, ok := s.Sessions().Get(id)
	if !ok {
		t.Fatal("session not live")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for i, c := range chunks {
			if code := sessionAppend(t, srv.URL, id, i+1, c); code != http.StatusOK {
				t.Errorf("append %d with stalled consumer: status %d", i+1, code)
				return
			}
			if _, err := sess.Barrier(ctx); err != nil {
				t.Errorf("snapshot %d never published with stalled consumer: %v", i+1, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("analysis path hung behind a stalled SSE consumer")
	}

	// The daemon survived and still answers.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after stalled consumer: %v", err)
	}
	resp.Body.Close()
}
