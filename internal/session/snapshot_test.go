package session

import (
	"bytes"
	"context"
	"net/url"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deepeq"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/trace"
)

// snapshotTestChunks simulates stencil and returns its append chunks.
func snapshotTestChunks(t *testing.T, ranks, iters, n int) []*trace.Trace {
	t.Helper()
	app, err := apps.ByName("stencil", iters)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		t.Fatal(err)
	}
	return Chunks(tr, n)
}

// encodeChunk serializes one chunk as an append body.
func encodeChunk(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openTestSession opens a memory-only session whose manager is closed
// when the test ends.
func openTestSession(t *testing.T) *Session {
	t.Helper()
	m, err := NewManager(Config{Options: func(url.Values) (core.Options, error) {
		return core.Options{Parallelism: 2}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	s, err := m.Open(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionRingKeepsOneReport: after N snapshots only the latest ring
// entry holds a Report, which Latest and Barrier return; every snapshot
// a subscriber receives, live or replayed from the ring, is Data-only.
func TestSessionRingKeepsOneReport(t *testing.T) {
	chunks := snapshotTestChunks(t, 4, 40, 4)
	if len(chunks) < 3 {
		t.Fatalf("trace yielded only %d chunks", len(chunks))
	}
	s := openTestSession(t)
	live := s.Subscribe(0)
	defer s.Unsubscribe(live)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for k, ch := range chunks {
		if _, err := s.Append(ctx, encodeChunk(t, ch), uint64(k+1)); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Barrier(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Report == nil || len(snap.Data) == 0 {
			t.Fatalf("append %d: Barrier snapshot lacks its Report or Data", k+1)
		}
		if latest := s.Latest(); latest.Report == nil || latest.ID < snap.ID {
			t.Fatalf("append %d: Latest is snapshot %d with Report %v", k+1, latest.ID, latest.Report != nil)
		}
	}

	s.mu.Lock()
	ring := append([]*Snapshot(nil), s.ring...)
	s.mu.Unlock()
	if len(ring) < 2 {
		t.Fatalf("only %d snapshots published", len(ring))
	}
	for k, sn := range ring {
		if latest := k == len(ring)-1; (sn.Report != nil) != latest || len(sn.Data) == 0 {
			t.Fatalf("ring entry %d of %d (snapshot %d): Report %v, %d data bytes",
				k+1, len(ring), sn.ID, sn.Report != nil, len(sn.Data))
		}
	}

	replay := s.Subscribe(0)
	defer s.Unsubscribe(replay)
	for name, sub := range map[string]*Subscriber{"live": live, "replay": replay} {
		var last uint64
		for {
			sctx, scancel := context.WithTimeout(ctx, 100*time.Millisecond)
			sn, err := sub.Next(sctx)
			scancel()
			if err != nil {
				break
			}
			if sn.Report != nil || len(sn.Data) == 0 {
				t.Fatalf("%s subscriber: snapshot %d has Report %v, %d data bytes",
					name, sn.ID, sn.Report != nil, len(sn.Data))
			}
			last = sn.ID
		}
		if want := ring[len(ring)-1].ID; last != want {
			t.Fatalf("%s subscriber stopped at snapshot %d, latest is %d", name, last, want)
		}
	}
	if s.Latest().Report == nil {
		t.Fatal("subscribing stripped the latest snapshot's Report")
	}
}

// TestSessionOutOfOrderAppendKeepsPublishedPrefix: a chunk whose first
// event sorts before the accumulated tail goes onto a fresh array, so an
// analysis of the published view, running concurrently with the append,
// still reads the old prefix unchanged (the race detector watches the
// shared records). The next snapshot equals a batch analysis of the
// sorted union.
func TestSessionOutOfOrderAppendKeepsPublishedPrefix(t *testing.T) {
	chunks := snapshotTestChunks(t, 4, 40, 4)
	if len(chunks) < 3 {
		t.Fatalf("trace yielded only %d chunks", len(chunks))
	}
	s := openTestSession(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	order := []int{0, 2, 1}
	for k, idx := range order[:2] {
		if _, err := s.Append(ctx, encodeChunk(t, chunks[idx]), uint64(k+1)); err != nil {
			t.Fatal(err)
		}
	}

	s.mu.Lock()
	view := &trace.Trace{
		Meta:    s.meta,
		Events:  s.events[:len(s.events):len(s.events)],
		Samples: s.samples[:len(s.samples):len(s.samples)],
		Comms:   s.comms[:len(s.comms):len(s.comms)],
	}
	view.Meta.Regions, view.Meta.Params = copyMap(s.meta.Regions), copyMap(s.meta.Params)
	s.mu.Unlock()
	before := &trace.Trace{
		Events:  append([]trace.Event(nil), view.Events...),
		Samples: append([]trace.Sample(nil), view.Samples...),
		Comms:   append([]trace.Comm(nil), view.Comms...),
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// The prefix may be invalid for a strict analysis; only its reads
		// of the shared records matter here.
		_, _ = core.Analyze(view, core.Options{Parallelism: 2, Lenient: true})
	}()
	if _, err := s.Append(ctx, encodeChunk(t, chunks[order[2]]), 3); err != nil {
		t.Fatal(err)
	}
	<-done

	if !reflect.DeepEqual(view.Events, before.Events) ||
		!reflect.DeepEqual(view.Samples, before.Samples) ||
		!reflect.DeepEqual(view.Comms, before.Comms) {
		t.Fatal("the out-of-order append changed records a published view covers")
	}
	s.mu.Lock()
	moved := &s.events[0] != &view.Events[0]
	s.mu.Unlock()
	if !moved {
		t.Fatal("an out-of-order append did not take the fresh-array path")
	}

	snap, err := s.Barrier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	union := &trace.Trace{Meta: chunks[0].Meta}
	for _, idx := range order {
		union.Events = append(union.Events, chunks[idx].Events...)
		union.Samples = append(union.Samples, chunks[idx].Samples...)
		union.Comms = append(union.Comms, chunks[idx].Comms...)
	}
	union.Sort()
	want, err := core.Analyze(union, s.Opts)
	if err != nil {
		t.Fatal(err)
	}
	got := *snap.Report // a published Report is never mutated; compare a copy
	got.Pipeline = append([]pipeline.Metrics(nil), got.Pipeline...)
	for _, r := range []*core.Report{&got, want} {
		for i := range r.Pipeline {
			r.Pipeline[i].Wall, r.Pipeline[i].Bytes = 0, 0
		}
	}
	if d := deepeq.Diff(&got, want); d != "" {
		t.Fatalf("snapshot after the out-of-order append differs from batch analysis of the sorted union at %s", d)
	}
}
