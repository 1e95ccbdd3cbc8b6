// Package rescache is a content-addressed result cache for the
// analysis service: a size-bounded LRU in-memory store of serialized
// results (full core.Reports, per-shard core.Partials, cluster models)
// keyed by (trace digest, canonical options fingerprint), with an
// optional disk tier so warm state survives restarts, and singleflight
// request coalescing so a thundering herd of identical requests costs
// exactly one computation.
//
// Because keys are content-addressed — the digest covers every input
// byte and the fingerprint covers every result-shaping option — cached
// entries never go stale and invalidation does not exist as an
// operation. The only ways an entry leaves the cache are LRU eviction
// under the byte budget and an operator wiping the disk tier.
//
// Values are opaque byte slices (in practice: the JSON the service
// would have written). Callers must treat returned slices as
// read-only; the cache hands the same backing array to every hit.
package rescache

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Config collects the cache's tunables. The zero value of every field
// selects a usable default.
type Config struct {
	// MaxBytes bounds the in-memory tier, all entries together (keys +
	// values + per-entry overhead); 0 selects 256 MiB.
	MaxBytes int64
	// Dir, when non-empty, adds a persistent tier: every stored entry
	// is also written to this directory (atomic create-temp + rename,
	// named by the sha256 of its key), and in-memory misses fall back
	// to it. The disk tier is unbounded; see docs/OPERATIONS.md for
	// sizing and cleanup guidance.
	Dir string
	// Registry, when non-nil, receives the cache's metric families
	// (<ns>_cache_{hits,misses,evictions,coalesced}_total,
	// <ns>_cache_bytes, <ns>_cache_entries, <ns>_cache_hit_seconds).
	Registry *obs.Registry
	// Namespace prefixes the metric families (default "rescache");
	// foldsvc passes "foldsvc".
	Namespace string
}

// Status reports how a GetOrCompute call was satisfied; it maps
// directly onto the Cache-Status response header.
type Status int

const (
	// Miss means this call ran the computation (and, on success,
	// stored the result).
	Miss Status = iota
	// Hit means the result came from a warm tier (memory or disk).
	Hit
	// Coalesced means the call attached to another caller's in-flight
	// computation and shared its outcome.
	Coalesced
)

// String renders the status as the Cache-Status header spells it.
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "miss"
}

// Result is what a GetOrCompute computation returns: the serialized
// value plus an optional veto on storing it. NoStore is for outcomes
// that are correct for this caller but not a pure function of the key
// — a coordinated Report that lost a shard, a partial whose upload
// did not match its declared digest — which must never be served to a
// future request.
type Result struct {
	// Data is the serialized value to return (and, unless NoStore,
	// cache).
	Data []byte
	// NoStore serves Data to the caller and any coalesced waiters but
	// keeps it out of the cache.
	NoStore bool
}

// Key assembles a cache key from an entry kind ("report", "partial",
// "model"), the content digest of the trace bytes (trace.DigestBytes),
// and any extra discriminators — the canonical options fingerprint,
// shard coordinates. Every layer building keys goes through this one
// helper so key layouts cannot drift apart.
func Key(kind, digest string, extra ...string) string {
	parts := make([]string, 0, 2+len(extra))
	parts = append(parts, kind, digest)
	parts = append(parts, extra...)
	return strings.Join(parts, "|")
}

// entryOverhead approximates the fixed per-entry bookkeeping cost
// (map bucket, list pointers, headers) charged against MaxBytes.
const entryOverhead = 128

// entry is one cached value on the LRU list.
type entry struct {
	key string
	val []byte
}

// flight is one in-progress computation that waiters can attach to.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is the content-addressed result cache. It is safe for
// concurrent use. Create it with New.
type Cache struct {
	cfg Config

	// mu guards the LRU and the in-flight computations.
	mu      sync.Mutex
	entries map[string]*list.Element // of *entry
	lru     *list.List               // front is the most recently used
	bytes   int64                    // the entries' cost
	flights map[string]*flight

	hitsMem, hitsDisk, misses          *obs.Counter
	coalesced, evictions, diskFailures *obs.Counter
	hitSecs                            *obs.Histogram
}

// New builds a ready cache from cfg, creating the disk-tier directory
// when configured and registering the metric families.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Namespace == "" {
		cfg.Namespace = "rescache"
	}
	if cfg.Dir != "" {
		// Best-effort: a failed create degrades to memory-only, surfaced
		// through the disk-failure counter at first write.
		os.MkdirAll(cfg.Dir, 0o755)
	}
	c := &Cache{cfg: cfg, entries: map[string]*list.Element{}, lru: list.New(),
		flights: map[string]*flight{}}

	ns := cfg.Namespace
	reg := cfg.Registry
	c.hitsMem = reg.Counter(ns+"_cache_hits_total",
		"Cache lookups served from a warm tier, by tier.",
		obs.Label{Name: "tier", Value: "memory"})
	c.hitsDisk = reg.Counter(ns+"_cache_hits_total",
		"Cache lookups served from a warm tier, by tier.",
		obs.Label{Name: "tier", Value: "disk"})
	c.misses = reg.Counter(ns+"_cache_misses_total",
		"Cache lookups that started a fresh computation (including ones that failed).")
	c.coalesced = reg.Counter(ns+"_cache_coalesced_total",
		"Cache lookups that attached to another request's in-flight computation.")
	c.evictions = reg.Counter(ns+"_cache_evictions_total",
		"Entries LRU-evicted from the in-memory tier under the byte budget.")
	c.diskFailures = reg.Counter(ns+"_cache_disk_failures_total",
		"Disk-tier reads or writes that failed (the cache degrades to memory-only).")
	reg.GaugeFunc(ns+"_cache_bytes",
		"Bytes held by the in-memory tier (keys + values + overhead).", nil,
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.bytes) })
	reg.GaugeFunc(ns+"_cache_entries",
		"Entries held by the in-memory tier.", nil,
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.entries)) })
	c.hitSecs = reg.Histogram(ns+"_cache_hit_seconds",
		"Latency of cache lookups that hit, in seconds.", nil)
	return c
}

// Get returns the cached value for key, consulting memory first and
// then the disk tier (promoting a disk hit into memory). The returned
// slice is shared — treat it as read-only.
func (c *Cache) Get(key string) ([]byte, bool) {
	start := time.Now()
	if v, ok := c.lookup(key); ok {
		c.hitsMem.Inc()
		c.hitSecs.Observe(time.Since(start).Seconds())
		return v, true
	}
	if c.cfg.Dir != "" {
		v, err := os.ReadFile(c.diskPath(key))
		if err == nil {
			c.insert(key, v)
			c.hitsDisk.Inc()
			c.hitSecs.Observe(time.Since(start).Seconds())
			return v, true
		}
		if !os.IsNotExist(err) {
			c.diskFailures.Inc()
		}
	}
	return nil, false
}

// Put stores val under key in memory and, when configured, on disk.
func (c *Cache) Put(key string, val []byte) {
	c.insert(key, val)
	if c.cfg.Dir != "" {
		c.writeDisk(key, val)
	}
}

// GetOrCompute returns the cached value for key, or runs compute to
// produce it. Concurrent calls for the same key are coalesced: exactly
// one runs compute, the rest block and share its outcome (value or
// error). The returned Status says which way this call went.
//
// Failure never poisons the cache: if compute returns an error, panics
// (converted to an error), or its context is cancelled mid-run, no
// entry is stored, every coalesced waiter receives the error, and the
// next call for the key recomputes from scratch. A waiter whose own
// ctx ends first stops waiting with its own ctx error; the leader's
// computation keeps running for the others.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func(context.Context) (Result, error)) ([]byte, Status, error) {
	if v, ok := c.Get(key); ok {
		return v, Hit, nil
	}

	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Inc()
		select {
		case <-f.done:
			return f.val, Coalesced, f.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.misses.Inc()
	res, err := runProtected(ctx, compute)
	if err == nil && !res.NoStore {
		c.Put(key, res.Data)
	}
	f.val, f.err = res.Data, err

	// Deregister before release so a post-failure retry starts a fresh
	// computation instead of attaching to this finished one.
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	return res.Data, Miss, err
}

// runProtected runs compute, converting a panic into an error so a
// crashing computation cannot wedge its singleflight waiters (they
// would otherwise block on a done channel nobody closes).
func runProtected(ctx context.Context, compute func(context.Context) (Result, error)) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			err = fmt.Errorf("rescache: computation panicked: %v", r)
		}
	}()
	return compute(ctx)
}

// lookup returns key's value from memory, refreshing its LRU position.
func (c *Cache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// insert stores (or refreshes) key in memory and evicts from the LRU
// tail until the entries fit in MaxBytes. An entry larger than the whole
// budget is still admitted (everything else is evicted) — a result that
// was worth computing is worth keeping once.
func (c *Cache) insert(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.bytes += cost(key, val) - cost(key, e.val)
		e.val = val
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&entry{key: key, val: val})
		c.bytes += cost(key, val)
	}
	for c.bytes > c.cfg.MaxBytes && c.lru.Len() > 1 {
		victim := c.lru.Remove(c.lru.Back()).(*entry)
		delete(c.entries, victim.key)
		c.bytes -= cost(victim.key, victim.val)
		c.evictions.Inc()
	}
}

// diskPath names key's disk-tier file: the sha256 of the key (keys
// embed option fingerprints that are not filename-safe), .json suffix
// because the stored values are the service's JSON bodies.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.cfg.Dir, trace.DigestBytes([]byte(key))+".json")
}

// writeDisk persists one entry with the atomic-rename discipline: a
// reader never observes a torn file, and a crash leaves at worst an
// orphaned temp file.
func (c *Cache) writeDisk(key string, val []byte) {
	tmp, err := os.CreateTemp(c.cfg.Dir, ".rescache-*")
	if err != nil {
		c.diskFailures.Inc()
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(val)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		c.diskFailures.Inc()
		return
	}
	if err := os.Rename(name, c.diskPath(key)); err != nil {
		os.Remove(name)
		c.diskFailures.Inc()
	}
}

// cost is what an entry charges against the byte budget.
func cost(key string, val []byte) int64 {
	return int64(len(key)) + int64(len(val)) + entryOverhead
}
