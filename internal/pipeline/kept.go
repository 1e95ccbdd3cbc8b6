package pipeline

import (
	"sync"

	"repro/internal/burst"
)

// keptChunk is how many bursts one chunk of the kept store holds
// (128 KiB).
const keptChunk = 1024

// keptChunks recycles the kept store's chunks across runs, so a live
// session's repeated snapshots reuse them instead of allocating afresh.
var keptChunks = sync.Pool{New: func() any { return new([keptChunk]burst.Burst) }}

// keptStore collects the kept bursts in arrival order in fixed-size
// pooled chunks, so each burst is copied in once and no slice is ever
// regrown. gather writes them out once more, in canonical order, into
// one exact-size slice.
type keptStore struct {
	chunks []*[keptChunk]burst.Burst
	n      int
}

// at returns the i-th burst in arrival order.
func (s *keptStore) at(i int) *burst.Burst {
	return &s.chunks[i/keptChunk][i%keptChunk]
}

// add appends b.
func (s *keptStore) add(b *burst.Burst) {
	if s.n == len(s.chunks)*keptChunk {
		s.chunks = append(s.chunks, keptChunks.Get().(*[keptChunk]burst.Burst))
	}
	*s.at(s.n) = *b
	s.n++
}

// prefix calls fn on the first n bursts as one slice, so fn may label
// them in place: the first chunk itself when it holds them all, else a
// copy whose Cluster labels are written back.
func (s *keptStore) prefix(n int, fn func([]burst.Burst)) {
	if n <= keptChunk {
		fn(s.chunks[0][:n])
		return
	}
	cp := make([]burst.Burst, n)
	for i := range cp {
		cp[i] = *s.at(i)
	}
	fn(cp)
	for i := range cp {
		s.at(i).Cluster = cp[i].Cluster
	}
}

// gather returns the bursts in burst.Sort's order, in one slice of
// exactly their number (nil for none), and hands the chunks back to the
// pool: nothing else may still hold one.
func (s *keptStore) gather() []burst.Burst {
	if s.n == 0 {
		return nil
	}
	keys := make([]burst.Key, s.n)
	for i := range keys {
		b := s.at(i)
		keys[i] = burst.Key{Start: b.Start, Rank: b.Rank, Seq: i}
	}
	burst.SortKeys(keys)
	out := make([]burst.Burst, s.n)
	for i, k := range keys {
		out[i] = *s.at(k.Seq)
	}
	for _, c := range s.chunks {
		keptChunks.Put(c)
	}
	s.chunks, s.n = nil, 0
	return out
}
