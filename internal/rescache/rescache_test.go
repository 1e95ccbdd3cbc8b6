package rescache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// Stats is a point-in-time snapshot of the cache's metric families.
type Stats struct {
	// Hits counts lookups served from memory; DiskHits from the disk
	// tier.
	Hits, DiskHits int64
	// Misses counts computations started (including ones that failed).
	Misses int64
	// Coalesced counts calls that attached to an in-flight computation.
	Coalesced int64
	// Evictions counts entries LRU-evicted under the byte budget.
	Evictions int64
	// Bytes and Entries describe the current in-memory tier.
	Bytes, Entries int64
}

// stats snapshots the cache's counters and gauges.
func (c *Cache) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      int64(c.hitsMem.Value()),
		DiskHits:  int64(c.hitsDisk.Value()),
		Misses:    int64(c.misses.Value()),
		Coalesced: int64(c.coalesced.Value()),
		Evictions: int64(c.evictions.Value()),
		Bytes:     c.bytes,
		Entries:   int64(len(c.entries)),
	}
}

func TestGetPutBasic(t *testing.T) {
	c := New(Config{})
	if _, ok := c.Get("report|abc|v1"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("report|abc|v1", []byte("hello"))
	v, ok := c.Get("report|abc|v1")
	if !ok || string(v) != "hello" {
		t.Fatalf("Get = %q, %v; want hello, true", v, ok)
	}
	st := c.stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 entry", st)
	}
	if st.Bytes != int64(len("report|abc|v1")+len("hello")+entryOverhead) {
		t.Fatalf("bytes = %d; want exact cost accounting", st.Bytes)
	}
}

func TestKeyLayout(t *testing.T) {
	got := Key("partial", "deadbeef", "hash", "2", "0", "fp")
	if got != "partial|deadbeef|hash|2|0|fp" {
		t.Fatalf("Key = %q", got)
	}
}

func TestLRUEvictionBound(t *testing.T) {
	c := New(Config{MaxBytes: 4 * 1024})
	val := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("k%d", i), val)
	}
	st := c.stats()
	if st.Bytes > 4*1024 {
		t.Fatalf("bytes %d exceeds budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a tight budget")
	}
	// Oldest entries must be gone, newest present.
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 should have been evicted")
	}
	if _, ok := c.Get("k7"); !ok {
		t.Fatal("k7 (most recent) should survive")
	}
}

// TestBudgetBoundsAllEntries fills a budget that holds every entry with
// many small entries and one above a sixteenth of it: nothing is
// evicted, because MaxBytes bounds the entries together, not per part.
func TestBudgetBoundsAllEntries(t *testing.T) {
	const maxBytes = 1 << 20
	c := New(Config{MaxBytes: maxBytes})
	small := make([]byte, 1024)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("small%d", i), small)
	}
	c.Put("big", make([]byte, maxBytes/16+1))
	if st := c.stats(); st.Evictions != 0 || st.Entries != 101 || st.Bytes > maxBytes {
		t.Fatalf("stats = %+v; want 101 entries within %d bytes and no evictions", st, maxBytes)
	}
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(fmt.Sprintf("small%d", i)); !ok {
			t.Fatalf("small%d was evicted", i)
		}
	}
}

func TestOversizedEntryAdmitted(t *testing.T) {
	c := New(Config{MaxBytes: 1024})
	big := make([]byte, 8*1024)
	c.Put("big", big)
	if _, ok := c.Get("big"); !ok {
		t.Fatal("an entry larger than the budget must still be admitted")
	}
}

func TestGetOrComputeMissThenHit(t *testing.T) {
	c := New(Config{})
	calls := 0
	compute := func(context.Context) (Result, error) {
		calls++
		return Result{Data: []byte("r")}, nil
	}
	v, st, err := c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || st != Miss || string(v) != "r" {
		t.Fatalf("first call = %q, %v, %v; want r, miss, nil", v, st, err)
	}
	v, st, err = c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || st != Hit || string(v) != "r" {
		t.Fatalf("second call = %q, %v, %v; want r, hit, nil", v, st, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times; want 1", calls)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(Config{})
	release := make(chan struct{})
	var computes int
	var mu sync.Mutex
	compute := func(context.Context) (Result, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		<-release
		return Result{Data: []byte("shared")}, nil
	}

	const waiters = 16
	results := make([]string, waiters)
	statuses := make([]Status, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, st, err := c.GetOrCompute(context.Background(), "k", compute)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i], statuses[i] = string(v), st
		}(i)
	}

	// Wait until the leader is computing and all 15 followers attached.
	deadline := time.After(10 * time.Second)
	for c.stats().Coalesced < waiters-1 {
		select {
		case <-deadline:
			t.Fatalf("followers never attached: stats %+v", c.stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("compute ran %d times; want 1", computes)
	}
	var miss, coal int
	for i := range results {
		if results[i] != "shared" {
			t.Fatalf("waiter %d got %q", i, results[i])
		}
		switch statuses[i] {
		case Miss:
			miss++
		case Coalesced:
			coal++
		}
	}
	if miss != 1 || coal != waiters-1 {
		t.Fatalf("statuses: %d miss, %d coalesced; want 1, %d", miss, coal, waiters-1)
	}
	st := c.stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPanicDoesNotPoison(t *testing.T) {
	c := New(Config{})
	release := make(chan struct{})
	boom := func(context.Context) (Result, error) {
		<-release
		panic("boom")
	}

	type out struct {
		err error
		st  Status
	}
	const waiters = 4
	outs := make(chan out, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, st, err := c.GetOrCompute(context.Background(), "k", boom)
			outs <- out{err, st}
		}()
	}
	deadline := time.After(10 * time.Second)
	for c.stats().Coalesced < waiters-1 {
		select {
		case <-deadline:
			t.Fatalf("followers never attached: stats %+v", c.stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	for i := 0; i < waiters; i++ {
		o := <-outs
		if o.err == nil || !strings.Contains(o.err.Error(), "panicked") {
			t.Fatalf("waiter got err=%v (status %v); want panic error", o.err, o.st)
		}
	}
	// No partial entry stored; the next request recomputes and succeeds.
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed computation left a cache entry")
	}
	v, st, err := c.GetOrCompute(context.Background(), "k", func(context.Context) (Result, error) {
		return Result{Data: []byte("ok")}, nil
	})
	if err != nil || st != Miss || string(v) != "ok" {
		t.Fatalf("recompute = %q, %v, %v; want ok, miss, nil", v, st, err)
	}
}

func TestComputeErrorSharedNotCached(t *testing.T) {
	c := New(Config{})
	sentinel := errors.New("pipeline failed")
	_, st, err := c.GetOrCompute(context.Background(), "k", func(context.Context) (Result, error) {
		return Result{}, sentinel
	})
	if !errors.Is(err, sentinel) || st != Miss {
		t.Fatalf("got %v, %v; want sentinel, miss", err, st)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("error result was cached")
	}
	if got := c.stats().Misses; got != 1 {
		t.Fatalf("misses = %d; want 1", got)
	}
}

func TestWaiterOwnContextCancel(t *testing.T) {
	c := New(Config{})
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	go c.GetOrCompute(context.Background(), "k", func(context.Context) (Result, error) {
		close(started)
		<-release
		return Result{Data: []byte("late")}, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, "k", func(context.Context) (Result, error) {
			t.Error("waiter must not compute")
			return Result{}, nil
		})
		done <- err
	}()
	deadline := time.After(10 * time.Second)
	for c.stats().Coalesced < 1 {
		select {
		case <-deadline:
			t.Fatal("waiter never attached")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v; want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
}

func TestNoStoreServedButNotCached(t *testing.T) {
	c := New(Config{})
	calls := 0
	degraded := func(context.Context) (Result, error) {
		calls++
		return Result{Data: []byte("degraded"), NoStore: true}, nil
	}
	v, st, err := c.GetOrCompute(context.Background(), "k", degraded)
	if err != nil || st != Miss || string(v) != "degraded" {
		t.Fatalf("first = %q, %v, %v", v, st, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("NoStore result was cached")
	}
	if _, st, _ := c.GetOrCompute(context.Background(), "k", degraded); st != Miss {
		t.Fatalf("second status = %v; want miss (recompute)", st)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times; want 2", calls)
	}
}

func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	warm := New(Config{Dir: dir})
	warm.Put("report|abc|fp", []byte("persisted"))

	// A fresh Cache (simulated restart) finds the entry on disk and
	// promotes it into memory.
	cold := New(Config{Dir: dir})
	v, ok := cold.Get("report|abc|fp")
	if !ok || string(v) != "persisted" {
		t.Fatalf("disk Get = %q, %v", v, ok)
	}
	st := cold.stats()
	if st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v; want one disk hit", st)
	}
	// Promoted: the second lookup is a memory hit.
	if _, ok := cold.Get("report|abc|fp"); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := cold.stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v; want one memory hit after promotion", st)
	}

	// Atomic-rename discipline: no temp files left behind, one
	// digest-named .json per entry.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("disk tier has %d files; want 1", len(ents))
	}
	name := ents[0].Name()
	if strings.HasPrefix(name, ".rescache-") || filepath.Ext(name) != ".json" || len(name) != 64+len(".json") {
		t.Fatalf("unexpected disk-tier file name %q", name)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced"} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q; want %q", st, st.String(), want)
		}
	}
}
