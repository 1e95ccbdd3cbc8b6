package foldsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/trace"
)

// encodeTrace returns tr's UVT encoding.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openSession opens a live session over HTTP and returns its id.
func openSession(t *testing.T, base, query string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/session"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open session: status %d: %s", resp.StatusCode, body)
	}
	var out struct{ ID, Fingerprint string }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" || out.Fingerprint == "" {
		t.Fatalf("open session: incomplete response %s", body)
	}
	return out.ID
}

// appendChunk POSTs one chunk with the given client sequence number and
// returns the decoded result (fatal on non-200).
func appendChunk(t *testing.T, base, id string, seq uint64, chunk []byte) session.AppendResult {
	t.Helper()
	u := fmt.Sprintf("%s/v1/session/%s/append?seq=%d", base, id, seq)
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append seq %d: status %d: %s", seq, resp.StatusCode, body)
	}
	var res session.AppendResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	Event string
	ID    uint64
	Data  string
}

// readFrames reads n non-heartbeat SSE frames from r.
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for len(frames) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d frames: read: %v", len(frames), err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.Event != "" || cur.Data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "retry: "):
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.ID = id
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

// getEvents opens the SSE stream with an optional Last-Event-ID.
func getEvents(t *testing.T, base, id string, lastID uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/session/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("events content-type %q", ct)
	}
	return resp
}

// TestSessionLifecycle drives the full HTTP session flow: open, append
// chunks (with an idempotent retry), observe status, and check the SSE
// snapshot against a local batch core.AnalyzeContext of the whole trace.
func TestSessionLifecycle(t *testing.T) {
	tr, _ := genTrace(t, 4, 40)
	chunks := session.Chunks(tr, 4)
	s := NewServer(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	id := openSession(t, srv.URL, "")
	var last session.AppendResult
	for i, c := range chunks {
		last = appendChunk(t, srv.URL, id, uint64(i+1), encodeTrace(t, c))
		if last.Duplicate {
			t.Fatalf("fresh append %d reported duplicate", i+1)
		}
	}
	st := tr.Stats()
	if last.Events != st.Events || last.Samples != st.Samples || last.Comms != st.Comms {
		t.Fatalf("cumulative shape %d/%d/%d, want %d/%d/%d",
			last.Events, last.Samples, last.Comms, st.Events, st.Samples, st.Comms)
	}

	// Retrying the last chunk with the same sequence number must be a
	// no-op acknowledgement, not a double append.
	dup := appendChunk(t, srv.URL, id, uint64(len(chunks)), encodeTrace(t, chunks[len(chunks)-1]))
	if !dup.Duplicate {
		t.Fatal("replayed sequence number not acknowledged as duplicate")
	}
	if dup.Events != last.Events {
		t.Fatalf("duplicate append changed the event count: %d -> %d", last.Events, dup.Events)
	}

	sess, ok := s.Sessions().Get(id)
	if !ok {
		t.Fatal("session not found in manager")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sn, err := sess.Barrier(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Status endpoint.
	resp, err := http.Get(srv.URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status session.Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Events != st.Events || status.Ended {
		t.Fatalf("status %+v, want %d events and not ended", status, st.Events)
	}

	// The latest SSE snapshot equals a batch analysis of the full trace.
	ev := getEvents(t, srv.URL, id, sn.ID-1)
	frames := readFrames(t, bufio.NewReader(ev.Body), 1)
	ev.Body.Close()
	if frames[0].Event != "snapshot" || frames[0].ID != sn.ID {
		t.Fatalf("frame %q id %d, want snapshot id %d", frames[0].Event, frames[0].ID, sn.ID)
	}
	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, want := asGeneric(t, []byte(frames[0].Data)), asGeneric(t, local)
	if !reflect.DeepEqual(got, want) {
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("report field %s differs from local Analyze", k)
			}
		}
		t.Fatal("session snapshot is not deep-equal to the batch report")
	}

	// Unknown session and bad sub-routes.
	if resp, _ := http.Get(srv.URL + "/v1/session/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL + "/v1/session/" + id + "/append"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET append: status %d, want 405", resp.StatusCode)
	}
}

// TestSessionRanklessAppend400: a chunk whose metadata declares no rank
// gets 400, like the same upload to /v1/analyze, and the session still
// takes the valid chunk after it.
func TestSessionRanklessAppend400(t *testing.T) {
	tr, enc := genTrace(t, 2, 20)
	rankless := *tr
	rankless.Meta.Ranks = 0
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()

	id := openSession(t, srv.URL, "")
	resp, err := http.Post(srv.URL+"/v1/session/"+id+"/append?seq=1",
		"application/octet-stream", bytes.NewReader(encodeTrace(t, &rankless)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rankless append: status %d, want 400: %s", resp.StatusCode, body)
	}
	if res := appendChunk(t, srv.URL, id, 2, enc); res.Events != len(tr.Events) {
		t.Fatalf("valid append after the rankless one holds %d events, want %d", res.Events, len(tr.Events))
	}
}

// TestSessionSSEResume checks the exactly-once resume contract at the
// wire level: for every possible Last-Event-ID, the reconnecting
// consumer receives exactly the snapshots after it — none duplicated,
// none skipped — and a mid-stream reconnect stitches seamlessly.
func TestSessionSSEResume(t *testing.T) {
	tr, _ := genTrace(t, 4, 40)
	chunks := session.Chunks(tr, 4)
	s := NewServer(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	id := openSession(t, srv.URL, "")
	sess, _ := s.Sessions().Get(id)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Append with a barrier per chunk so every append publishes its own
	// snapshot: ids 1..K.
	var latest uint64
	for i, c := range chunks {
		appendChunk(t, srv.URL, id, uint64(i+1), encodeTrace(t, c))
		sn, err := sess.Barrier(ctx)
		if err != nil {
			t.Fatal(err)
		}
		latest = sn.ID
	}
	if latest < uint64(len(chunks)) {
		t.Fatalf("published %d snapshots, want >= %d", latest, len(chunks))
	}

	for lastID := uint64(0); lastID < latest; lastID++ {
		ev := getEvents(t, srv.URL, id, lastID)
		frames := readFrames(t, bufio.NewReader(ev.Body), int(latest-lastID))
		ev.Body.Close()
		for i, f := range frames {
			if f.Event != "snapshot" || f.ID != lastID+uint64(i)+1 {
				t.Fatalf("resume from %d: frame %d is %q id %d, want snapshot id %d",
					lastID, i, f.Event, f.ID, lastID+uint64(i)+1)
			}
		}
	}

	// Mid-stream reconnect: read half, drop the connection, resume with
	// the last seen id via the query form.
	ev := getEvents(t, srv.URL, id, 0)
	first := readFrames(t, bufio.NewReader(ev.Body), int(latest)/2)
	ev.Body.Close()
	seen := first[len(first)-1].ID
	resp, err := http.Get(srv.URL + "/v1/session/" + id + "/events?last_event_id=" + strconv.FormatUint(seen, 10))
	if err != nil {
		t.Fatal(err)
	}
	rest := readFrames(t, bufio.NewReader(resp.Body), int(latest-seen))
	resp.Body.Close()
	var ids []uint64
	for _, f := range append(first, rest...) {
		ids = append(ids, f.ID)
	}
	for i, got := range ids {
		if got != uint64(i)+1 {
			t.Fatalf("stitched stream ids %v: position %d is %d, want %d", ids, i, got, i+1)
		}
	}
}

// TestSessionDiffAgainstBaseline diffs a live session snapshot against
// a cached baseline digest — the diff-layer consumer of live sessions.
func TestSessionDiffAgainstBaseline(t *testing.T) {
	trA, encA := genTrace(t, 4, 40)
	_ = trA
	s := NewServer(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Warm the cache and capture the baseline digest.
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(encA))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm analyze: status %d", resp.StatusCode)
	}
	digest := resp.Header.Get("Trace-Digest")
	if digest == "" {
		t.Fatal("analyze response carries no Trace-Digest")
	}

	id := openSession(t, srv.URL, "")

	// Before any snapshot: a session reference must 404, not crash.
	u := srv.URL + "/v1/diff?digest_a=" + digest + "&session_b=" + id
	if resp, err = http.Get(u); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("diff with snapshot-less session: status %d, want 404", resp.StatusCode)
	}

	trB, _ := genTrace(t, 4, 50)
	for i, c := range session.Chunks(trB, 3) {
		appendChunk(t, srv.URL, id, uint64(i+1), encodeTrace(t, c))
	}
	sess, _ := s.Sessions().Get(id)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sess.Barrier(ctx); err != nil {
		t.Fatal(err)
	}

	if resp, err = http.Get(u); err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff: status %d: %s", resp.StatusCode, body)
	}
	if a, b := resp.Header.Get("Cache-Status-a"), resp.Header.Get("Cache-Status-b"); a != "hit" || b != "session" {
		t.Fatalf("Cache-Status a=%q b=%q, want hit/session", a, b)
	}
	var d struct{ AppA, AppB string }
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.AppA == "" || d.AppB == "" {
		t.Fatalf("diff result incomplete: %s", body)
	}
}

// TestSessionDrain: StartDrain must end live sessions with a final SSE
// "end" event, keep answering admission-controlled routes with 503 +
// Retry-After, and raise the foldsvc_draining gauge.
func TestSessionDrain(t *testing.T) {
	tr, enc := genTrace(t, 4, 40)
	chunks := session.Chunks(tr, 2)
	s := NewServer(Config{SessionHeartbeat: 100 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	id := openSession(t, srv.URL, "")
	appendChunk(t, srv.URL, id, 1, encodeTrace(t, chunks[0]))
	sess, _ := s.Sessions().Get(id)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sess.Barrier(ctx); err != nil {
		t.Fatal(err)
	}

	ev := getEvents(t, srv.URL, id, 0)
	defer ev.Body.Close()
	r := bufio.NewReader(ev.Body)
	if f := readFrames(t, r, 1)[0]; f.Event != "snapshot" {
		t.Fatalf("first frame %q, want snapshot", f.Event)
	}

	s.StartDrain(ctx)

	end := readFrames(t, r, 1)[0]
	if end.Event != "end" {
		t.Fatalf("post-drain frame %q, want end", end.Event)
	}
	var e struct{ Reason string }
	if err := json.Unmarshal([]byte(end.Data), &e); err != nil || e.Reason != "drain" {
		t.Fatalf("end frame data %q, want reason drain (err %v)", end.Data, err)
	}

	if v := metricValue(t, srv.URL, "foldsvc_draining"); v != 1 {
		t.Fatalf("foldsvc_draining = %v, want 1", v)
	}

	// Every admission-controlled route turns clients away with a
	// Retry-After so load balancers move on.
	for _, probe := range []struct {
		method, path string
		body         io.Reader
	}{
		{http.MethodPost, "/v1/analyze", bytes.NewReader(enc)},
		{http.MethodPost, "/v1/session", nil},
		{http.MethodPost, "/v1/session/" + id + "/append?seq=9", bytes.NewReader(encodeTrace(t, chunks[1]))},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, probe.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s while draining: status %d, want 503", probe.method, probe.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s while draining: no Retry-After header", probe.method, probe.path)
		}
	}
}

// TestSessionBudgets: the per-session byte budget and the session-count
// budget both answer 429 with a Retry-After.
func TestSessionBudgets(t *testing.T) {
	tr, enc := genTrace(t, 4, 40)
	_ = tr
	s := NewServer(Config{SessionMaxBytes: 1024, MaxSessions: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()

	id := openSession(t, srv.URL, "")
	u := fmt.Sprintf("%s/v1/session/%s/append?seq=1", srv.URL, id)
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget append: status %d: %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-budget append: no Retry-After header")
	}

	if resp, err = http.Post(srv.URL+"/v1/session", "", nil); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session over MaxSessions=1: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("session-count rejection: no Retry-After header")
	}
}

// TestClientSessionEvents drives the foldsvc.Client session helper end
// to end and checks that its reconnect logic resumes without gaps or
// duplicates after the server kills the connection.
func TestClientSessionEvents(t *testing.T) {
	tr, _ := genTrace(t, 4, 40)
	chunks := session.Chunks(tr, 3)
	s := NewServer(Config{SessionHeartbeat: 100 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	c, err := NewClient(ClientConfig{
		BaseURL:     srv.URL,
		MaxAttempts: 8,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cs, err := c.OpenSession(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, ok := s.Sessions().Get(cs.ID)
	if !ok {
		t.Fatal("opened session not in manager")
	}

	// First chunk, then snapshot.
	if _, err := cs.Append(ctx, encodeTrace(t, chunks[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Barrier(ctx); err != nil {
		t.Fatal(err)
	}

	evCh := make(chan SessionEvent, 64)
	evctx, evcancel := context.WithCancel(ctx)
	defer evcancel()
	done := make(chan error, 1)
	go func() {
		done <- cs.Events(evctx, 0, func(ev SessionEvent) error {
			evCh <- ev
			return nil
		})
	}()

	// After the first delivered frame, sever every connection; the
	// client must reconnect with Last-Event-ID and miss nothing.
	first := <-evCh
	srv.CloseClientConnections()

	// Remaining chunks, one snapshot each, while the consumer streams.
	var latest uint64
	for i, ch := range chunks[1:] {
		if _, err := cs.Append(ctx, encodeTrace(t, ch)); err != nil {
			t.Fatalf("append %d: %v", i+2, err)
		}
		sn, err := sess.Barrier(ctx)
		if err != nil {
			t.Fatal(err)
		}
		latest = sn.ID
	}

	ids := []uint64{first.ID}
	final := first.Report
	for ids[len(ids)-1] < latest {
		select {
		case ev := <-evCh:
			ids = append(ids, ev.ID)
			final = ev.Report
		case err := <-done:
			t.Fatalf("Events ended early (%v) after ids %v", err, ids)
		case <-ctx.Done():
			t.Fatalf("timed out waiting for snapshot %d, got %v", latest, ids)
		}
	}
	evcancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Events returned %v, want context.Canceled", err)
	}

	// No duplicates, no gaps, ends at the latest snapshot.
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("snapshot %d delivered twice across reconnects (ids %v)", id, ids)
		}
		seen[id] = true
	}
	for i := ids[0]; i <= latest; i++ {
		if !seen[i] {
			t.Fatalf("snapshot %d skipped across reconnects (ids %v)", i, ids)
		}
	}
	if final == nil || final.Bursts == 0 {
		t.Fatal("final snapshot report is empty")
	}
}
