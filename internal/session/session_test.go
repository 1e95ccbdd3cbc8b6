package session_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deepeq"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/trace"
)

func genTrace(t *testing.T, name string, ranks, iters int) *trace.Trace {
	t.Helper()
	app, err := apps.ByName(name, iters)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefixUnion rebuilds the trace the first k chunks describe: the
// concatenated record sets, stably re-sorted — exactly what the session
// accumulates.
func prefixUnion(chunks []*trace.Trace, k int) *trace.Trace {
	out := &trace.Trace{Meta: chunks[0].Meta}
	for _, ch := range chunks[:k] {
		out.Events = append(out.Events, ch.Events...)
		out.Samples = append(out.Samples, ch.Samples...)
		out.Comms = append(out.Comms, ch.Comms...)
	}
	out.Sort()
	return out
}

// normReports clears the legitimately run-dependent fields (stage wall
// clock and byte counts) before a deepeq.Diff comparison, which takes
// NaN (fold bands, a degenerate silhouette) as equal to NaN.
func normReports(a, b *core.Report) {
	for i := range a.Pipeline {
		a.Pipeline[i].Wall, a.Pipeline[i].Bytes = 0, 0
	}
	for i := range b.Pipeline {
		b.Pipeline[i].Wall, b.Pipeline[i].Bytes = 0, 0
	}
}

func newManager(t *testing.T, cfg session.Config) *session.Manager {
	t.Helper()
	if cfg.Options == nil {
		cfg.Options = func(url.Values) (core.Options, error) {
			return core.Options{Parallelism: 2}, nil
		}
	}
	m, err := session.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

// TestChunksPartition is the chunker's contract: record-preserving
// (concatenation sorts back to the input) and prefix-valid (every
// prefix union passes strict validation).
func TestChunksPartition(t *testing.T) {
	tr := genTrace(t, "stencil", 4, 40)
	for _, n := range []int{1, 2, 5, 16} {
		chunks := session.Chunks(tr, n)
		if len(chunks) < 1 || len(chunks) > n {
			t.Fatalf("n=%d: got %d chunks", n, len(chunks))
		}
		union := prefixUnion(chunks, len(chunks))
		if !reflect.DeepEqual(union.Events, tr.Events) ||
			!reflect.DeepEqual(union.Samples, tr.Samples) ||
			!reflect.DeepEqual(union.Comms, tr.Comms) {
			t.Fatalf("n=%d: chunk union does not reproduce the input records", n)
		}
		for k := 1; k <= len(chunks); k++ {
			if err := prefixUnion(chunks, k).Validate(); err != nil {
				t.Fatalf("n=%d: prefix of %d chunks invalid: %v", n, k, err)
			}
		}
		for i, ch := range chunks {
			if err := ch.Validate(); err != nil {
				t.Fatalf("n=%d: chunk %d invalid standalone: %v", n, i, err)
			}
		}
	}
}

// TestSessionPrefixEquivalence is the live-session contract: after K
// appended chunks, the session's snapshot Report deep-equals a batch
// Analyze over the union of those chunks — for every prefix, strict and
// lenient, and with the online folder.
func TestSessionPrefixEquivalence(t *testing.T) {
	tr := genTrace(t, "stencil", 4, 40)
	chunks := session.Chunks(tr, 4)
	if len(chunks) < 2 {
		t.Fatalf("trace yielded only %d chunks", len(chunks))
	}
	cases := []struct {
		name string
		opts core.Options
	}{
		{"strict-columnar", core.Options{Parallelism: 2}},
		{"lenient-columnar", core.Options{Parallelism: 2, Lenient: true}},
	}
	online := core.Options{Parallelism: 2}
	online.Stream.Online = true
	online.Stream.TrainBursts = 64
	cases = append(cases, struct {
		name string
		opts core.Options
	}{"online", online})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(t, session.Config{
				Dir: t.TempDir(),
				Options: func(url.Values) (core.Options, error) {
					return tc.opts, nil
				},
			})
			s, err := m.Open(url.Values{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for k, ch := range chunks {
				if _, err := s.Append(ctx, encode(t, ch), uint64(k+1)); err != nil {
					t.Fatalf("append %d: %v", k, err)
				}
				snap, err := s.Barrier(ctx)
				if err != nil {
					t.Fatalf("barrier after %d: %v", k+1, err)
				}
				want, err := core.Analyze(prefixUnion(chunks, k+1), tc.opts)
				if err != nil {
					t.Fatalf("batch analyze of %d-chunk prefix: %v", k+1, err)
				}
				normReports(snap.Report, want)
				if d := deepeq.Diff(snap.Report, want); d != "" {
					t.Fatalf("snapshot after %d chunks differs from batch analysis at %s", k+1, d)
				}
			}
		})
	}
}

// TestSessionCrashRecovery is the durability contract: kill the daemon
// (abandon the manager without any shutdown) after K of N appends,
// rebuild a manager over the same journal directory, feed the remaining
// chunks, and the final Report must deep-equal an uninterrupted run.
func TestSessionCrashRecovery(t *testing.T) {
	tr := genTrace(t, "cg", 4, 40)
	chunks := session.Chunks(tr, 6)
	if len(chunks) < 3 {
		t.Fatalf("trace yielded only %d chunks", len(chunks))
	}
	k := len(chunks) / 2
	dir := t.TempDir()
	opts := core.Options{Parallelism: 2}
	hook := func(url.Values) (core.Options, error) { return opts, nil }

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	m1 := newManager(t, session.Config{Dir: dir, TTL: time.Hour, Options: hook})
	s1, err := m1.Open(url.Values{"lenient": {"0"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := s1.Append(ctx, encode(t, chunks[i]), uint64(i+1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// No Close, no flush: the journal on disk is all that survives,
	// exactly as after a kill -9.

	m2 := newManager(t, session.Config{Dir: dir, TTL: time.Hour, Options: hook})
	s2, ok := m2.Get(s1.ID)
	if !ok {
		t.Fatalf("session %s not recovered", s1.ID)
	}
	if len(s2.Status().Warnings) != 0 {
		t.Fatalf("clean journal recovered with warnings: %v", s2.Status().Warnings)
	}
	// A duplicate of the last acknowledged append must still dedupe.
	res, err := s2.Append(ctx, encode(t, chunks[k-1]), uint64(k))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate {
		t.Fatal("recovered session forgot the applied sequence numbers")
	}
	for i := k; i < len(chunks); i++ {
		if _, err := s2.Append(ctx, encode(t, chunks[i]), uint64(i+1)); err != nil {
			t.Fatalf("append %d after recovery: %v", i, err)
		}
	}
	snap, err := s2.Barrier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	normReports(snap.Report, want)
	if d := deepeq.Diff(snap.Report, want); d != "" {
		t.Fatalf("post-recovery Report differs from an uninterrupted run at %s", d)
	}
}

// TestSessionRecoveryTruncatedSegment: a torn journal segment recovers
// the longest clean prefix, flags the damage, and keeps serving.
func TestSessionRecoveryTruncatedSegment(t *testing.T) {
	tr := genTrace(t, "stencil", 2, 30)
	chunks := session.Chunks(tr, 3)
	if len(chunks) < 2 {
		t.Skip("trace too small to chunk")
	}
	dir := t.TempDir()
	m1 := newManager(t, session.Config{Dir: dir, TTL: time.Hour})
	s1, err := m1.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, ch := range chunks {
		if _, err := s1.Append(ctx, encode(t, ch), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}

	// Truncate the last segment to a torn write.
	sdir := filepath.Join(dir, s1.ID)
	entries, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs = append(segs, filepath.Join(sdir, e.Name()))
		}
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, session.Config{Dir: dir, TTL: time.Hour})
	s2, ok := m2.Get(s1.ID)
	if !ok {
		t.Fatal("damaged-journal session not recovered at all")
	}
	st := s2.Status()
	if len(st.Warnings) == 0 {
		t.Fatal("truncated segment recovered without a warning")
	}
	if st.Segments != len(chunks)-1 {
		t.Fatalf("recovered %d segments, want %d", st.Segments, len(chunks)-1)
	}
	// Still serviceable: the lost chunk can be re-appended.
	if _, err := s2.Append(ctx, encode(t, chunks[len(chunks)-1]), 0); err != nil {
		t.Fatalf("append after degraded recovery: %v", err)
	}
	if _, err := s2.Barrier(ctx); err != nil {
		t.Fatalf("no snapshot after degraded recovery: %v", err)
	}
}

// TestSessionIdempotentAppend: a replayed sequence number acknowledges
// as a duplicate without changing the session.
func TestSessionIdempotentAppend(t *testing.T) {
	tr := genTrace(t, "stencil", 2, 20)
	m := newManager(t, session.Config{Dir: t.TempDir()})
	s, err := m.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chunk := encode(t, tr)
	first, err := s.Append(ctx, chunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Append(ctx, chunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Duplicate {
		t.Fatal("replayed seq not flagged as duplicate")
	}
	if second.Events != first.Events || second.Bytes != first.Bytes {
		t.Fatalf("duplicate append changed the session: %+v vs %+v", second, first)
	}
}

// TestSessionBudgets: per-session and global byte budgets and the
// session-count cap reject with the right sentinels, and never corrupt
// the session.
func TestSessionBudgets(t *testing.T) {
	tr := genTrace(t, "stencil", 2, 20)
	chunk := encode(t, tr)

	m := newManager(t, session.Config{MaxSessionBytes: int64(len(chunk)) + 10})
	s, err := m.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(context.Background(), chunk, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(context.Background(), chunk, 2); !errors.Is(err, session.ErrSessionBudget) {
		t.Fatalf("want ErrSessionBudget, got %v", err)
	}

	g := newManager(t, session.Config{MaxTotalBytes: int64(len(chunk)) + 10})
	gs, err := g.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Append(context.Background(), chunk, 1); err != nil {
		t.Fatal(err)
	}
	gs2, err := g.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs2.Append(context.Background(), chunk, 1); !errors.Is(err, session.ErrGlobalBudget) {
		t.Fatalf("want ErrGlobalBudget, got %v", err)
	}

	c := newManager(t, session.Config{MaxSessions: 1})
	if _, err := c.Open(url.Values{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(url.Values{}); !errors.Is(err, session.ErrTooManySessions) {
		t.Fatalf("want ErrTooManySessions, got %v", err)
	}
}

// TestSessionMetaMismatch: a chunk from a different application is
// rejected without being applied.
func TestSessionMetaMismatch(t *testing.T) {
	a := genTrace(t, "stencil", 2, 20)
	b := genTrace(t, "cg", 2, 20)
	m := newManager(t, session.Config{})
	s, err := m.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(context.Background(), encode(t, a), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(context.Background(), encode(t, b), 2); !errors.Is(err, session.ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

// TestSessionTTLEviction: an idle session is evicted, its subscribers
// get the "idle" end reason, and its journal is deleted.
func TestSessionTTLEviction(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, session.Config{Dir: dir, TTL: 50 * time.Millisecond})
	s, err := m.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(0)
	defer s.Unsubscribe(sub)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = sub.Next(ctx)
	var ee *session.EndedError
	if !errors.As(err, &ee) || ee.Reason != "idle" {
		t.Fatalf("want idle EndedError, got %v", err)
	}
	if _, ok := m.Get(s.ID); ok {
		t.Fatal("evicted session still resolvable")
	}
	// Subscribers are released before the journal is deleted; poll
	// briefly for the removal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, s.ID)); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted session journal still on disk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr := genTrace(t, "stencil", 2, 20)
	if _, err := s.Append(ctx, encode(t, tr), 0); !errors.Is(err, session.ErrEnded) {
		t.Fatalf("append to evicted session: want ErrEnded, got %v", err)
	}
}

// TestSessionDrainKeepsJournal: Close ends sessions with reason "drain"
// and leaves the journal for the next start.
func TestSessionDrainKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, session.Config{Dir: dir, TTL: time.Hour})
	s, err := m.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	tr := genTrace(t, "stencil", 2, 20)
	if _, err := s.Append(context.Background(), encode(t, tr), 1); err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Close(ctx)

	for {
		_, err := sub.Next(ctx)
		if err == nil {
			continue // drain any published snapshots first
		}
		var ee *session.EndedError
		if !errors.As(err, &ee) || ee.Reason != "drain" {
			t.Fatalf("want drain EndedError, got %v", err)
		}
		break
	}
	if _, err := os.Stat(filepath.Join(dir, s.ID, "meta.json")); err != nil {
		t.Fatalf("drain deleted the journal: %v", err)
	}

	// And the journal is complete: a fresh manager recovers the session.
	m2 := newManager(t, session.Config{Dir: dir, TTL: time.Hour})
	s2, ok := m2.Get(s.ID)
	if !ok {
		t.Fatal("drained session not recovered by the next manager")
	}
	if got := s2.Status().Segments; got != 1 {
		t.Fatalf("recovered %d segments, want 1", got)
	}
}

// TestSubscriberCoalescing: a subscriber that never reads is bounded at
// the ring size and counts its drops; the analysis path never blocks.
func TestSubscriberCoalescing(t *testing.T) {
	tr := genTrace(t, "stencil", 2, 30)
	chunks := session.Chunks(tr, 8)
	m := newManager(t, session.Config{Ring: 2})
	s, err := m.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(0)
	defer s.Unsubscribe(sub)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, ch := range chunks {
		if _, err := s.Append(ctx, encode(t, ch), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Status()
	if st.Snapshots < 3 {
		t.Skipf("only %d snapshots published, cannot exercise coalescing", st.Snapshots)
	}
	// The never-reading subscriber holds at most Ring pending snapshots.
	seen := 0
	for {
		sctx, scancel := context.WithTimeout(ctx, 100*time.Millisecond)
		_, err := sub.Next(sctx)
		scancel()
		if err != nil {
			break
		}
		seen++
	}
	if seen > 2 {
		t.Fatalf("slow subscriber accumulated %d pending snapshots, ring is 2", seen)
	}
	if int(sub.Dropped())+seen < int(st.Snapshots) {
		t.Fatalf("drops (%d) + delivered (%d) < published (%d)", sub.Dropped(), seen, st.Snapshots)
	}
}

// TestSubscriberResume: subscribing with a last-seen id replays only
// newer retained snapshots — no duplicates, no gaps.
func TestSubscriberResume(t *testing.T) {
	tr := genTrace(t, "stencil", 2, 30)
	chunks := session.Chunks(tr, 4)
	m := newManager(t, session.Config{})
	s, err := m.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, ch := range chunks {
		if _, err := s.Append(ctx, encode(t, ch), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
	}
	latest := s.Latest()
	if latest == nil {
		t.Fatal("no snapshots")
	}
	for lastSeen := uint64(0); lastSeen <= latest.ID; lastSeen++ {
		sub := s.Subscribe(lastSeen)
		want := lastSeen + 1
		for {
			sctx, scancel := context.WithTimeout(ctx, 100*time.Millisecond)
			sn, err := sub.Next(sctx)
			scancel()
			if err != nil {
				break
			}
			if sn.ID != want {
				t.Fatalf("resume from %d: got snapshot %d, want %d", lastSeen, sn.ID, want)
			}
			want++
		}
		if want <= latest.ID {
			t.Fatalf("resume from %d stopped at %d, latest is %d", lastSeen, want-1, latest.ID)
		}
		s.Unsubscribe(sub)
	}
}

// TestChunksDegenerate: tiny and rankless traces produce a usable chunk
// list instead of panicking.
func TestChunksDegenerate(t *testing.T) {
	empty := &trace.Trace{Meta: trace.Metadata{App: "x", Ranks: 1, Duration: 10}}
	chunks := session.Chunks(empty, 4)
	if len(chunks) != 1 {
		t.Fatalf("empty trace: got %d chunks, want 1", len(chunks))
	}
	if got := fmt.Sprint(len(chunks[0].Events)); got != "0" {
		t.Fatalf("empty trace chunk has events: %s", got)
	}
}
