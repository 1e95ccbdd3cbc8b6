package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Metrics collects the observability handles the manager drives. Every
// field is optional; nil handles are skipped. The owning service
// registers the families (keeping the metric-name literals next to its
// other registrations, where the docs gate can see them) and passes the
// handles in.
type Metrics struct {
	// Active gauges the number of live sessions.
	Active *obs.Gauge
	// Bytes gauges the appended bytes held across live sessions.
	Bytes *obs.Gauge
	// Appends counts accepted (journaled) appends.
	Appends *obs.Counter
	// Snapshots counts published Report snapshots.
	Snapshots *obs.Counter
	// SnapshotsDropped counts snapshots coalesced away for slow
	// subscribers.
	SnapshotsDropped *obs.Counter
	// Evicted counts idle-TTL evictions.
	Evicted *obs.Counter
	// Recovered counts sessions rebuilt from journals at startup.
	Recovered *obs.Counter
	// Fsync observes journal segment fsync latency in seconds.
	Fsync *obs.Histogram
}

func incC(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func setG(g *obs.Gauge, v float64) {
	if g != nil {
		g.Set(v)
	}
}

// Config tunes a Manager. The zero value of every field selects a
// production-reasonable default; a zero-value Config is a memory-only
// manager (no journals, no recovery).
type Config struct {
	// Dir is the journal root; "" disables journaling (sessions then die
	// with the process).
	Dir string
	// TTL evicts sessions with no appends for this long (default 15m).
	TTL time.Duration
	// MaxSessionBytes caps one session's appended bytes (default 64 MiB).
	MaxSessionBytes int64
	// MaxTotalBytes caps appended bytes across all sessions
	// (default 256 MiB).
	MaxTotalBytes int64
	// MaxSessions caps concurrently live sessions (default 64).
	MaxSessions int
	// Ring is the per-session snapshot retention (resume window) and the
	// per-subscriber queue bound (default 64).
	Ring int
	// AnalyzeSlots bounds concurrent snapshot analyses across sessions
	// (default GOMAXPROCS).
	AnalyzeSlots int
	// Options derives the analysis configuration from a session's open
	// query; it runs again on recovery, so persisted sessions rebuild
	// the exact options they opened with. nil means zero Options.
	Options func(url.Values) (core.Options, error)
	// Logger receives the manager's structured log stream.
	Logger *slog.Logger
	// Metrics receives the manager's observability handles.
	Metrics Metrics
}

// Manager owns the live sessions: admission (count and byte budgets),
// journal recovery at startup, idle-TTL eviction, and drain.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	slots  chan struct{}
	total  atomic.Int64

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool

	janitorDone chan struct{}
}

// NewManager applies defaults, recovers any journaled sessions under
// cfg.Dir, and starts the TTL janitor.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Minute
	}
	if cfg.MaxSessionBytes <= 0 {
		cfg.MaxSessionBytes = 64 << 20
	}
	if cfg.MaxTotalBytes <= 0 {
		cfg.MaxTotalBytes = 256 << 20
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 64
	}
	if cfg.AnalyzeSlots <= 0 {
		cfg.AnalyzeSlots = runtime.GOMAXPROCS(0)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:         cfg,
		ctx:         ctx,
		cancel:      cancel,
		slots:       make(chan struct{}, cfg.AnalyzeSlots),
		sessions:    make(map[string]*Session),
		janitorDone: make(chan struct{}),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			cancel()
			return nil, fmt.Errorf("session: journal root: %w", err)
		}
		m.recoverAll()
	}
	go m.janitor()
	return m, nil
}

// observeFsync feeds the journal fsync histogram.
func (m *Manager) observeFsync(d time.Duration) {
	if m.cfg.Metrics.Fsync != nil {
		m.cfg.Metrics.Fsync.Observe(d.Seconds())
	}
}

// reserve admits n more appended bytes against both budgets.
func (m *Manager) reserve(sessionBytes, n int64) error {
	if sessionBytes+n > m.cfg.MaxSessionBytes {
		return fmt.Errorf("%w (%d + %d > %d bytes)", ErrSessionBudget, sessionBytes, n, m.cfg.MaxSessionBytes)
	}
	for {
		cur := m.total.Load()
		if cur+n > m.cfg.MaxTotalBytes {
			return fmt.Errorf("%w (%d + %d > %d bytes)", ErrGlobalBudget, cur, n, m.cfg.MaxTotalBytes)
		}
		if m.total.CompareAndSwap(cur, cur+n) {
			setG(m.cfg.Metrics.Bytes, float64(cur+n))
			return nil
		}
	}
}

// release returns reserved bytes (failed journal write, retired
// session).
func (m *Manager) release(n int64) {
	v := m.total.Add(-n)
	setG(m.cfg.Metrics.Bytes, float64(v))
}

// newID returns a fresh 16-hex-character session id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("session: rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// newSession constructs the in-memory session shell.
func (m *Manager) newSession(id string, query url.Values, opts core.Options) *Session {
	return &Session{
		ID:          id,
		Query:       query,
		Opts:        opts,
		Fingerprint: opts.Fingerprint(),
		Created:     time.Now(),
		m:           m,
		subs:        make(map[*Subscriber]struct{}),
		dirty:       make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		lastActive:  time.Now(),
	}
}

// options resolves a session's analysis configuration from its query.
func (m *Manager) options(q url.Values) (core.Options, error) {
	if m.cfg.Options == nil {
		return core.Options{}, nil
	}
	return m.cfg.Options(q)
}

// Open creates a live session configured by query, journals its
// identity (when the manager is journaled) and starts its snapshot
// loop.
func (m *Manager) Open(query url.Values) (*Session, error) {
	opts, err := m.options(query)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return nil, fmt.Errorf("%w (%d live)", ErrTooManySessions, len(m.sessions))
	}
	id := newID()
	s := m.newSession(id, query, opts)
	if m.cfg.Dir != "" {
		s.dir = filepath.Join(m.cfg.Dir, id)
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("session: journal dir: %w", err)
		}
		jm := journalMeta{ID: id, Query: query.Encode(), Created: s.Created}
		if err := writeMeta(s.dir, jm); err != nil {
			os.RemoveAll(s.dir)
			return nil, fmt.Errorf("session: journal meta: %w", err)
		}
	}
	m.sessions[id] = s
	setG(m.cfg.Metrics.Active, float64(len(m.sessions)))
	go s.loop()
	m.cfg.Logger.Info("session opened", "session", id, "fingerprint", s.Fingerprint)
	return s, nil
}

// Get returns a live session by id.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// recoverAll scans the journal root and rebuilds every persisted
// session, replaying its segments through the normal append path. A
// session whose journal is damaged recovers the longest clean prefix
// and keeps serving, degraded; only an unreadable identity skips the
// session entirely.
func (m *Manager) recoverAll() {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		m.cfg.Logger.Warn("session recovery scan failed", "dir", m.cfg.Dir, "err", err)
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(m.cfg.Dir, e.Name())
		s, err := m.recoverSession(e.Name(), dir)
		if err != nil {
			m.cfg.Logger.Warn("session recovery failed", "session", e.Name(), "err", err)
			continue
		}
		m.sessions[s.ID] = s
		go s.loop()
		incC(m.cfg.Metrics.Recovered)
		st := s.Status()
		m.cfg.Logger.Info("session recovered", "session", s.ID,
			"segments", st.Segments, "events", st.Events, "degraded", len(st.Warnings) > 0)
	}
	setG(m.cfg.Metrics.Active, float64(len(m.sessions)))
}

// recoverSession rebuilds one session from its journal directory.
func (m *Manager) recoverSession(id, dir string) (*Session, error) {
	jm, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	q, err := url.ParseQuery(jm.Query)
	if err != nil {
		return nil, fmt.Errorf("session: journaled query does not parse: %w", err)
	}
	opts, err := m.options(q)
	if err != nil {
		return nil, fmt.Errorf("session: journaled options: %w", err)
	}
	s := m.newSession(id, q, opts)
	s.dir = dir
	s.Created = jm.Created

	names, err := segNames(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		idx, cseq, _ := parseSegName(name)
		if idx != s.segments {
			s.warnings = append(s.warnings, fmt.Sprintf(
				"journal gap: expected segment %d, found %d; recovered %d segment(s) only",
				s.segments, idx, s.segments))
			break
		}
		data, derr := os.ReadFile(filepath.Join(dir, name))
		var trc *trace.Trace
		var dst trace.DecodeStats
		if derr == nil {
			trc, dst, derr = decodeChunk(data, opts.Lenient)
		}
		if derr != nil {
			s.warnings = append(s.warnings, fmt.Sprintf(
				"journal segment %d is unreadable (%v); recovered %d segment(s) only",
				idx, derr, s.segments))
			break
		}
		if s.haveMeta && (trc.Meta.App != s.meta.App || trc.Meta.Ranks != s.meta.Ranks) {
			s.warnings = append(s.warnings, fmt.Sprintf(
				"journal segment %d metadata mismatch; recovered %d segment(s) only",
				idx, s.segments))
			break
		}
		s.applyLocked(trc, dst, len(data), cseq)
	}
	s.warnings = core.BoundWarnings(s.warnings)
	m.total.Add(s.bytes)
	setG(m.cfg.Metrics.Bytes, float64(m.total.Load()))
	return s, nil
}

// janitor sweeps idle sessions every quarter TTL.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	interval := m.cfg.TTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.sweep()
		}
	}
}

// sweep evicts sessions with no appends for a full TTL: subscribers
// get an "idle" end event and the journal is deleted.
func (m *Manager) sweep() {
	now := time.Now()
	m.mu.Lock()
	var evict []*Session
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastActive) > m.cfg.TTL
		s.mu.Unlock()
		if idle {
			evict = append(evict, s)
			delete(m.sessions, id)
		}
	}
	n := len(m.sessions)
	m.mu.Unlock()
	for _, s := range evict {
		m.retire(s, "idle")
		incC(m.cfg.Metrics.Evicted)
		m.cfg.Logger.Info("session evicted", "session", s.ID, "reason", "idle")
	}
	if len(evict) > 0 {
		setG(m.cfg.Metrics.Active, float64(n))
	}
}

// retire ends a session, settles its accounting and deletes its
// journal. end() waits for any in-flight append (it holds the session
// lock), so after it returns no further journal writes can happen and
// the directory is safe to delete.
func (m *Manager) retire(s *Session, reason string) {
	s.end(reason)
	s.mu.Lock()
	b, dir := s.bytes, s.dir
	s.mu.Unlock()
	m.release(b)
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// Close drains the manager: no new sessions, every live session ends
// with a final "drain" event to its subscribers, journals are kept on
// disk for the next start, and in-flight snapshot analyses are
// cancelled. Close waits for the snapshot loops up to ctx.
func (m *Manager) Close(ctx context.Context) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()

	m.cancel()
	for _, s := range ss {
		s.end("drain")
	}
	for _, s := range ss {
		select {
		case <-s.done:
		case <-ctx.Done():
		}
	}
	select {
	case <-m.janitorDone:
	case <-ctx.Done():
	}
	setG(m.cfg.Metrics.Active, 0)
}
