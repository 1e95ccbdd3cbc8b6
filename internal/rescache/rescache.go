// Package rescache is a content-addressed result cache for the
// analysis service: a size-bounded, sharded-by-key, LRU in-memory
// store of serialized results (full core.Reports, per-shard
// core.Partials, cluster models) keyed by (trace digest, canonical
// options fingerprint), with an optional disk tier so warm state
// survives restarts, and singleflight request coalescing so a
// thundering herd of identical requests costs exactly one computation.
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
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Config collects the cache's tunables. The zero value of every field
// selects a usable default.
type Config struct {
	// MaxBytes bounds the in-memory tier (keys + values + per-entry
	// overhead); 0 selects 256 MiB. The bound is enforced per shard
	// (MaxBytes/Shards each), so a pathological key distribution can
	// undershoot but never overshoot the total.
	MaxBytes int64
	// Shards is the lock-striping factor (default 16): entries are
	// distributed over this many independently locked LRU shards so
	// concurrent hits do not serialize on one mutex.
	Shards int
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

// entry is one cached value threaded on its shard's LRU list.
type entry struct {
	key        string
	val        []byte
	prev, next *entry
}

// shard is one independently locked LRU stripe.
type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	bytes   int64
	max     int64
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
	cfg    Config
	shards []*shard

	mu      sync.Mutex
	flights map[string]*flight

	stBytes, stEntries                 atomic.Int64
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
	if cfg.Shards <= 0 {
		cfg.Shards = 16
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
	c := &Cache{cfg: cfg, flights: map[string]*flight{}}
	perShard := cfg.MaxBytes / int64(cfg.Shards)
	if perShard < 1 {
		perShard = 1
	}
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, &shard{entries: map[string]*entry{}, max: perShard})
	}

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
		func() float64 { return float64(c.stBytes.Load()) })
	reg.GaugeFunc(ns+"_cache_entries",
		"Entries held by the in-memory tier.", nil,
		func() float64 { return float64(c.stEntries.Load()) })
	c.hitSecs = reg.Histogram(ns+"_cache_hit_seconds",
		"Latency of cache lookups that hit, in seconds.", nil)
	return c
}

// shardFor picks the stripe owning key.
func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Get returns the cached value for key, consulting memory first and
// then the disk tier (promoting a disk hit into memory). The returned
// slice is shared — treat it as read-only.
func (c *Cache) Get(key string) ([]byte, bool) {
	start := time.Now()
	sh := c.shardFor(key)
	if v, ok := sh.get(key); ok {
		c.hitsMem.Inc()
		c.hitSecs.Observe(time.Since(start).Seconds())
		return v, true
	}
	if c.cfg.Dir != "" {
		v, err := os.ReadFile(c.diskPath(key))
		if err == nil {
			c.insert(sh, key, v)
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
	c.insert(c.shardFor(key), key, val)
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

// insert stores into the shard and settles the global gauges and
// eviction counters from the shard's report.
func (c *Cache) insert(sh *shard, key string, val []byte) {
	deltaBytes, deltaEntries, evicted := sh.put(key, val)
	c.stBytes.Add(deltaBytes)
	c.stEntries.Add(deltaEntries)
	if evicted > 0 {
		c.evictions.Add(float64(evicted))
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

// get looks key up in this shard, refreshing its LRU position.
func (sh *shard) get(key string) ([]byte, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	sh.moveToFront(e)
	return e.val, true
}

// put inserts (or refreshes) key and evicts from the LRU tail until
// the shard is back under budget. It reports the byte and entry deltas
// and how many entries were evicted. An entry larger than the whole
// shard budget is still admitted (everything else is evicted) — a
// result that was worth computing is worth keeping once.
func (sh *shard) put(key string, val []byte) (deltaBytes, deltaEntries int64, evicted int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		deltaBytes += cost(key, val) - cost(key, e.val)
		sh.bytes += cost(key, val) - cost(key, e.val)
		e.val = val
		sh.moveToFront(e)
	} else {
		e := &entry{key: key, val: val}
		sh.entries[key] = e
		sh.pushFront(e)
		sh.bytes += cost(key, val)
		deltaBytes += cost(key, val)
		deltaEntries++
	}
	for sh.bytes > sh.max && sh.tail != nil && sh.tail.key != key {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.bytes -= cost(victim.key, victim.val)
		deltaBytes -= cost(victim.key, victim.val)
		deltaEntries--
		evicted++
	}
	return deltaBytes, deltaEntries, evicted
}

// pushFront links e as the most recently used entry.
func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes e from the LRU list.
func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e's LRU position.
func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
