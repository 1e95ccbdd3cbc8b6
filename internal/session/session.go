// Package session implements durable live analysis sessions: trace
// records stream in through appends, evolving core.Report snapshots
// stream out to subscribers, and a per-session write-ahead journal
// makes the whole construction survive a kill -9 — a restarted manager
// replays the journals and recovers each session to a Report deep-equal
// to an uninterrupted run.
//
// The analysis itself reuses the batch pipeline: every snapshot is
// core.AnalyzeContext over the accumulated records, so a session
// snapshot after N appends is provably the same Report batch analysis
// of that prefix produces (per-phase panic isolation, degraded mode and
// the online/columnar paths all inherited for free). Snapshots are
// coalesced — appends mark the session dirty and a single per-session
// goroutine analyzes the newest state, so a burst of appends costs one
// analysis and a slow subscriber can never block the analysis path.
package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Sentinel errors; handlers map these onto HTTP statuses.
var (
	// ErrEnded means the session was drained or evicted; appends and new
	// snapshots are over (410 Gone).
	ErrEnded = errors.New("session: session ended")
	// ErrSessionBudget means this session's appended-byte budget is
	// exhausted (429 + Retry-After).
	ErrSessionBudget = errors.New("session: per-session byte budget exhausted")
	// ErrGlobalBudget means the manager-wide appended-byte budget is
	// exhausted (429 + Retry-After).
	ErrGlobalBudget = errors.New("session: global session byte budget exhausted")
	// ErrTooManySessions means the live-session count cap was hit
	// (429 + Retry-After).
	ErrTooManySessions = errors.New("session: too many live sessions")
	// ErrClosed means the manager is draining for shutdown (503).
	ErrClosed = errors.New("session: manager closed")
	// ErrMismatch means an appended chunk's metadata names a different
	// application or rank count than the session (400).
	ErrMismatch = errors.New("session: append metadata mismatch")
)

// EndedError carries the reason a session ended ("drain", "idle").
// errors.Is(err, ErrEnded) matches it.
type EndedError struct{ Reason string }

func (e *EndedError) Error() string { return "session: ended: " + e.Reason }

// Is reports that an EndedError is an ErrEnded.
func (e *EndedError) Is(target error) bool { return target == ErrEnded }

// Snapshot is one published state of a session's evolving Report.
type Snapshot struct {
	// ID is the monotonic per-session snapshot id (1-based) — the SSE
	// event id subscribers resume from.
	ID uint64
	// Gen is the append generation the snapshot covers: a snapshot with
	// Gen >= g reflects every append up to generation g.
	Gen uint64
	// Report is the analysis result; immutable once published. Only
	// the session's latest snapshot carries it (Latest, Barrier): when a
	// newer one is published, the ring entry is replaced by a copy
	// without it, and subscribers are handed such Data-only copies from
	// the start. Older snapshots are served from Data alone.
	Report *core.Report
	// Data is the canonical JSON encoding of Report.
	Data []byte
	// At is the publication time.
	At time.Time
}

// Session is one live analysis session. All methods are safe for
// concurrent use.
type Session struct {
	// ID is the session identifier (hex, journal directory name).
	ID string
	// Query is the option query the session was opened with.
	Query url.Values
	// Opts is the resolved analysis configuration.
	Opts core.Options
	// Fingerprint is Opts.Fingerprint() — the cache-key half a diff
	// against a cached baseline digest shares with rescache.
	Fingerprint string
	// Created is the open (or original open, after recovery) time.
	Created time.Time

	m   *Manager
	dir string // journal directory; "" when the manager is memory-only

	mu         sync.Mutex
	haveMeta   bool
	meta       trace.Metadata
	events     []trace.Event
	samples    []trace.Sample
	comms      []trace.Comm
	decode     trace.DecodeStats
	warnings   []string // session-level degradations (journal corruption)
	bytes      int64
	segments   int
	lastSeq    uint64
	gen        uint64
	lastActive time.Time
	ended      bool
	endReason  string
	subs       map[*Subscriber]struct{}

	snapID     uint64
	ring       []*Snapshot
	analyzeErr string
	analyzeGen uint64

	dirty chan struct{} // cap 1: append coalescing
	stop  chan struct{}
	done  chan struct{}
}

// AppendResult acknowledges one accepted (or deduplicated) append.
type AppendResult struct {
	// Segment is the journal segment index the chunk landed in (the
	// next index on duplicates; -1 when the manager is memory-only).
	Segment int
	// Duplicate reports an idempotent replay: the client sequence number
	// was already applied, nothing changed.
	Duplicate bool
	// Events, Samples, Comms are the session's cumulative record counts.
	Events, Samples, Comms int
	// Bytes is the session's cumulative appended-byte total.
	Bytes int64
}

// decodeChunk decodes one append body — a complete UVT1 chunk — in the
// session's mode. Lenient salvages what it can and tallies the damage;
// a header-level failure is an error in both modes, and so is metadata
// that no analysis accepts (no rank), since the first chunk's metadata
// is the session's for good.
func decodeChunk(data []byte, lenient bool) (*trace.Trace, trace.DecodeStats, error) {
	var (
		tr  *trace.Trace
		st  trace.DecodeStats
		err error
	)
	if lenient {
		tr, st, err = trace.ReadFromLenient(bytes.NewReader(data))
	} else {
		tr, err = trace.ReadFrom(bytes.NewReader(data))
	}
	if err == nil {
		err = tr.Meta.Validate()
	}
	return tr, st, err
}

// Append decodes chunk (strict or lenient per the session options),
// journals it, folds its records into the session state and marks the
// session dirty so the snapshot loop publishes an updated Report. The
// chunk must be a complete UVT1 trace sharing the session's timeline;
// record sets accumulate, metadata must agree on app and rank count. A
// chunk whose metadata fails Metadata.Validate is refused with an error
// wrapping trace.ErrInvalid, and nothing is journaled.
//
// clientSeq, when non-zero, makes the append idempotent: a sequence
// number at or below the last applied one is acknowledged as a
// duplicate without re-applying, so a client retrying a timed-out
// append cannot double-count records. The chunk is durably journaled
// before the method returns nil.
func (s *Session) Append(ctx context.Context, chunk []byte, clientSeq uint64) (AppendResult, error) {
	tr, st, err := decodeChunk(chunk, s.Opts.Lenient)
	if err != nil {
		return AppendResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return AppendResult{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return AppendResult{}, &EndedError{Reason: s.endReason}
	}
	if clientSeq != 0 && clientSeq <= s.lastSeq {
		res := s.resultLocked()
		res.Duplicate = true
		return res, nil
	}
	if s.haveMeta && (tr.Meta.App != s.meta.App || tr.Meta.Ranks != s.meta.Ranks) {
		return AppendResult{}, fmt.Errorf("%w: chunk is %s/%d ranks, session is %s/%d ranks",
			ErrMismatch, tr.Meta.App, tr.Meta.Ranks, s.meta.App, s.meta.Ranks)
	}
	if err := s.m.reserve(s.bytes, int64(len(chunk))); err != nil {
		return AppendResult{}, err
	}
	if s.dir != "" {
		if err := writeFileSync(s.dir, segName(s.segments, clientSeq), chunk, s.m.observeFsync); err != nil {
			s.m.release(int64(len(chunk)))
			return AppendResult{}, fmt.Errorf("session: journal append: %w", err)
		}
	}
	s.applyLocked(tr, st, len(chunk), clientSeq)
	incC(s.m.cfg.Metrics.Appends)
	return s.resultLocked(), nil
}

// resultLocked builds the acknowledgement from the current state.
func (s *Session) resultLocked() AppendResult {
	seg := s.segments - 1
	if s.dir == "" {
		seg = -1
	}
	return AppendResult{
		Segment: seg,
		Events:  len(s.events),
		Samples: len(s.samples),
		Comms:   len(s.comms),
		Bytes:   s.bytes,
	}
}

// applyLocked folds one decoded chunk into the session state. The
// accumulated state after K appends is exactly the K-chunk prefix trace:
// the stable sort of every chunk's records concatenated.
//
// Published snapshots analyze views of the accumulated slices, so the
// records below their current length are never written. The chunk is
// sorted on its own; when its first record does not sort before the
// last accumulated one, the stable sort of the concatenation is the
// concatenation itself, and the chunk is appended in place (past every
// view's length). Otherwise both go onto a fresh array, which is
// stable-sorted as a whole.
func (s *Session) applyLocked(tr *trace.Trace, st trace.DecodeStats, n int, clientSeq uint64) {
	if !s.haveMeta {
		s.meta = tr.Meta
		s.meta.Regions = copyMap(tr.Meta.Regions)
		s.meta.Params = copyMap(tr.Meta.Params)
		s.haveMeta = true
	} else {
		if tr.Meta.Duration > s.meta.Duration {
			s.meta.Duration = tr.Meta.Duration
		}
		if s.meta.SamplePeriod == 0 {
			s.meta.SamplePeriod = tr.Meta.SamplePeriod
		}
		s.meta.Regions = mergeMap(s.meta.Regions, tr.Meta.Regions)
		s.meta.Params = mergeMap(s.meta.Params, tr.Meta.Params)
	}
	tr.Sort()
	var fresh trace.Trace // sorts only the kinds that took a fresh array
	var moved bool
	if s.events, moved = appendRecords(s.events, tr.Events, func(a, b *trace.Event) bool {
		return a.Time < b.Time || a.Time == b.Time && a.Rank < b.Rank
	}); moved {
		fresh.Events = s.events
	}
	if s.samples, moved = appendRecords(s.samples, tr.Samples, func(a, b *trace.Sample) bool {
		return a.Time < b.Time || a.Time == b.Time && a.Rank < b.Rank
	}); moved {
		fresh.Samples = s.samples
	}
	if s.comms, moved = appendRecords(s.comms, tr.Comms, func(a, b *trace.Comm) bool {
		return a.SendTime < b.SendTime || a.SendTime == b.SendTime && a.Src < b.Src
	}); moved {
		fresh.Comms = s.comms
	}
	fresh.Sort()
	s.decode.Add(st)
	s.bytes += int64(n)
	s.segments++
	if clientSeq > s.lastSeq {
		s.lastSeq = clientSeq
	}
	s.gen++
	s.lastActive = time.Now()
	select {
	case s.dirty <- struct{}{}:
	default:
	}
}

// appendRecords appends a sorted chunk to sorted accumulated records
// without writing acc[:len(acc)]. before reports whether a record sorts
// strictly before another by Trace.Sort's keys. If chunk[0] does not
// sort before acc's last record, the chunk is appended in place and
// moved is false; otherwise acc and chunk are copied onto a fresh array,
// which the caller must stable-sort, and moved is true.
func appendRecords[T any](acc, chunk []T, before func(a, b *T) bool) (out []T, moved bool) {
	if len(acc) == 0 || len(chunk) == 0 || !before(&chunk[0], &acc[len(acc)-1]) {
		return append(acc, chunk...), false
	}
	out = make([]T, 0, len(acc)+len(chunk))
	return append(append(out, acc...), chunk...), true
}

// copyMap deep-copies a metadata map, preserving nil-ness so recovered
// and live metadata stay deep-equal to the batch trace's.
func copyMap[K comparable](m map[K]string) map[K]string {
	if m == nil {
		return nil
	}
	out := make(map[K]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeMap adds src entries absent from dst (first chunk wins on
// conflicts), allocating only when something is actually added.
func mergeMap[K comparable](dst, src map[K]string) map[K]string {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			if dst == nil {
				dst = make(map[K]string, len(src))
			}
			dst[k] = v
		}
	}
	return dst
}

// loop is the per-session snapshot goroutine: wait until dirty, take a
// manager analysis slot, analyze, publish. Coalescing lives in the
// cap-1 dirty channel — any number of appends during an analysis fold
// into one follow-up snapshot of the newest state.
func (s *Session) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.dirty:
		}
		select {
		case s.m.slots <- struct{}{}:
		case <-s.stop:
			return
		}
		s.snapshot(s.m.ctx)
		<-s.m.slots
	}
}

// snapshot analyzes the current accumulated state and publishes the
// result. It analyzes capacity-capped views of the record slices,
// outside the lock: applyLocked never writes below a view's length, and
// the analysis only reads records, so appends never wait on an analysis
// and a snapshot copies no record.
func (s *Session) snapshot(ctx context.Context) {
	s.mu.Lock()
	if len(s.events) == 0 && len(s.samples) == 0 {
		s.mu.Unlock()
		return
	}
	gen := s.gen
	tr := &trace.Trace{
		Meta:    s.meta,
		Events:  s.events[:len(s.events):len(s.events)],
		Samples: s.samples[:len(s.samples):len(s.samples)],
		Comms:   s.comms[:len(s.comms):len(s.comms)],
	}
	// Appends mutate the metadata maps in place; the analysis reads its
	// copy outside the lock, so it needs its own.
	tr.Meta.Regions = copyMap(s.meta.Regions)
	tr.Meta.Params = copyMap(s.meta.Params)
	st := s.decode
	warns := append([]string(nil), s.warnings...)
	s.mu.Unlock()

	rep, err := core.AnalyzeContext(ctx, tr, s.Opts)
	if err != nil {
		// A strict session's prefix can be transiently invalid (a chunk
		// boundary inside an MPI call); the failure is recorded, the last
		// good snapshot stands, and the next append retries.
		s.mu.Lock()
		s.analyzeErr = err.Error()
		s.analyzeGen = gen
		s.mu.Unlock()
		if ctx.Err() == nil {
			s.m.cfg.Logger.Warn("session snapshot failed", "session", s.ID, "err", err)
		}
		return
	}
	if st.Degraded() {
		rep.NoteDecode(st)
	}
	if len(warns) > 0 {
		rep.Warnings = append(warns, rep.Warnings...)
		rep.Degraded = true
	}
	rep.Warnings = core.BoundWarnings(rep.Warnings)
	data, err := json.Marshal(rep)
	if err != nil {
		s.m.cfg.Logger.Error("session snapshot does not encode", "session", s.ID, "err", err)
		return
	}

	s.mu.Lock()
	s.analyzeErr = ""
	s.snapID++
	snap := &Snapshot{ID: s.snapID, Gen: gen, Report: rep, Data: data, At: time.Now()}
	// The ring keeps one Report, the latest's: the previous entry is
	// replaced (never mutated) by its Data-only copy.
	if n := len(s.ring); n > 0 {
		s.ring[n-1] = s.ring[n-1].dataOnly()
	}
	s.ring = append(s.ring, snap)
	if len(s.ring) > s.m.cfg.Ring {
		s.ring = append([]*Snapshot(nil), s.ring[len(s.ring)-s.m.cfg.Ring:]...)
	}
	subs := make([]*Subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	lean := snap.dataOnly()
	for _, sub := range subs {
		sub.push(lean)
	}
	incC(s.m.cfg.Metrics.Snapshots)
}

// dataOnly returns a copy of sn without its Report.
func (sn *Snapshot) dataOnly() *Snapshot {
	c := *sn
	c.Report = nil
	return &c
}

// Latest returns the most recent published snapshot, Report included,
// or nil before the first one.
func (s *Session) Latest() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) == 0 {
		return nil
	}
	return s.ring[len(s.ring)-1]
}

// Barrier blocks until a snapshot covering every append made before the
// call is published and returns it. If the analysis of the current
// state failed (and no newer append has fixed it), the analysis error
// is returned instead.
func (s *Session) Barrier(ctx context.Context) (*Snapshot, error) {
	s.mu.Lock()
	want := s.gen
	s.mu.Unlock()
	for {
		s.mu.Lock()
		var latest *Snapshot
		if len(s.ring) > 0 {
			latest = s.ring[len(s.ring)-1]
		}
		aerr, agen := s.analyzeErr, s.analyzeGen
		ended, reason := s.ended, s.endReason
		s.mu.Unlock()
		if latest != nil && latest.Gen >= want {
			return latest, nil
		}
		if aerr != "" && agen >= want {
			return nil, errors.New(aerr)
		}
		if ended {
			return nil, &EndedError{Reason: reason}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Status is a point-in-time summary for handlers and operators.
type Status struct {
	ID                     string
	Fingerprint            string
	Events, Samples, Comms int
	Bytes                  int64
	Segments               int
	Snapshots              uint64
	LastError              string `json:",omitempty"`
	Warnings               []string
	Ended                  bool
	EndReason              string `json:",omitempty"`
}

// Status reports the session's current shape.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		ID:          s.ID,
		Fingerprint: s.Fingerprint,
		Events:      len(s.events),
		Samples:     len(s.samples),
		Comms:       len(s.comms),
		Bytes:       s.bytes,
		Segments:    s.segments,
		Snapshots:   s.snapID,
		LastError:   s.analyzeErr,
		Warnings:    append([]string(nil), s.warnings...),
		Ended:       s.ended,
		EndReason:   s.endReason,
	}
}

// end terminates the session: appends start failing, the snapshot loop
// stops, and every subscriber is released with the reason. Idempotent.
func (s *Session) end(reason string) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.endReason = reason
	subs := make([]*Subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subs = make(map[*Subscriber]struct{})
	s.mu.Unlock()
	close(s.stop)
	for _, sub := range subs {
		sub.end(reason)
	}
}
